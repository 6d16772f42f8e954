(** Binary encoding primitives shared by the WAL and snapshot formats.

    Conventions, chosen so the on-disk layout stays flat and
    mmap-friendly (ROADMAP open item: the CSR segment/slot arrays are
    already flat — they are written as contiguous fixed-width runs):

    - all integers little-endian; [u8]/[u32] fixed-width, [i64] a full
      64-bit two's-complement word (OCaml ints round-trip exactly);
    - strings and arrays are length-prefixed ([u32] count), elements
      contiguous;
    - topology arrays are 4-byte elements ([u32], or [i32] where [-1]
      is a legal sentinel), so a future [Bigarray.map_file] reader can
      view them in place at a computed offset;
    - every checksummed region uses {!fnv1a64} (the same FNV-1a the
      plan cache keys on, widened to 64 bits).

    Readers raise [End_of_file] on a short read — the one exception
    class torn-tail recovery must tolerate — and {!Corrupt} on
    structural damage (bad magic, checksum mismatch, impossible
    counts). *)

exception Corrupt of { file : string; reason : string }
(** Structurally invalid store file. Mapped to [Kaskade.Error.Io] by
    [Error.of_exn]; recovery treats a corrupt {e tail} as torn and
    truncates instead of raising. *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a over the whole string. *)

(** {1 Writing} *)

val add_u8 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [[0, 2^32)]. *)

val add_i64 : Buffer.t -> int -> unit
val add_f64 : Buffer.t -> float -> unit
val add_i32_array : Buffer.t -> int array -> unit

val add_ops : Buffer.t -> Kaskade_graph.Graph.Overlay.op list -> unit

val add_graph : Buffer.t -> Kaskade_graph.Graph.t -> unit
(** Schema + flat topology arrays ([Graph.internal_arrays]) + both
    property tables — everything {!graph} needs to rebuild the
    frozen CSR via [Graph.of_arrays]. *)

val add_view : Buffer.t -> Kaskade_views.View.t -> unit

(** {1 Reading} *)

type reader
(** Cursor over one loaded file. *)

val reader : file:string -> string -> reader
(** [file] is used in error messages only. *)

val pos : reader -> int
val corrupt : reader -> string -> 'a
(** Raise {!Corrupt} for this reader's file. *)

val u8 : reader -> int
val u32 : reader -> int
val i64 : reader -> int
val f64 : reader -> float
val sub : reader -> int -> string
(** Next [n] raw bytes. *)

val i32_array : reader -> int array
val ops : reader -> Kaskade_graph.Graph.Overlay.op list
val graph : reader -> Kaskade_graph.Graph.t
val view : reader -> Kaskade_views.View.t
(** Tag 0 is a k-hop connector and tags 10-13 the four type filters.
    Any other tag, including the retired 1-3 and 14-16 of deleted view
    kinds, raises {!Corrupt}; a short read raises [End_of_file]. *)
