(** Column-oriented property storage: one sparse column per property
    name, keyed by entity (vertex or edge) id. *)

type t

val create : unit -> t
val set : t -> int -> string -> Value.t -> unit
val get : t -> int -> string -> Value.t option
val get_or_null : t -> int -> string -> Value.t
val keys : t -> string list
(** Property names present, sorted. *)

val iter_column : t -> string -> (int -> Value.t -> unit) -> unit

val remap : t -> (int -> int) -> t
(** A fresh store holding every entry re-keyed through the mapping;
    entries mapped to a negative id are dropped. The input is not
    modified. *)

val entity_props : t -> int -> (string * Value.t) list
(** All properties of one entity, sorted by name (slow path, for
    display and tests). *)
