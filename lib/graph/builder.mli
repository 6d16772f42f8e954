(** Mutable property-graph construction. The builder enforces the
    schema's domain/range constraints at insertion time, so a frozen
    {!Graph.t} is schema-consistent by construction — the guarantee
    Kaskade's constraint mining relies on. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t

val add_vertex : t -> vtype:string -> ?props:(string * Value.t) list -> unit -> int
(** Returns the new vertex id (dense, starting at 0). Raises
    [Invalid_argument] on an unknown vertex type. *)

val add_edge : t -> src:int -> dst:int -> etype:string -> ?props:(string * Value.t) list -> unit -> int
(** Returns the new edge id. Raises [Invalid_argument] if the edge
    type is unknown or its domain/range does not match the endpoint
    vertex types, or if an endpoint id is out of range. *)

val set_vertex_prop : t -> int -> string -> Value.t -> unit
val set_edge_prop : t -> int -> string -> Value.t -> unit

val vertex_count : t -> int

(**/**)

(* Raw storage handed to [Graph.freeze]; not part of the public API. *)
val internal_vtypes : t -> Kaskade_util.Int_vec.t
val internal_edges : t -> Kaskade_util.Int_vec.t * Kaskade_util.Int_vec.t * Kaskade_util.Int_vec.t
val internal_props : t -> Props.t * Props.t
