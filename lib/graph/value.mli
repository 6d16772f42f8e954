(** Property values attached to vertices and edges of a property graph
    (paper §III-A: vertices and edges are typed and may carry key-value
    properties). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool
val compare : t -> t -> int
(** Null < Bool < numeric < Str; Int and Float compare numerically. *)

val to_float : t -> float option
(** Numeric view of [Int]/[Float]/[Bool]; [None] otherwise. *)

val is_truthy : t -> bool
(** Cypher-ish truthiness: [Null] and [Bool false] are false. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Numeric arithmetic; [Str] concatenation for [add]; [Null]
    propagates; anything else raises [Invalid_argument]. *)

val to_string : t -> string
