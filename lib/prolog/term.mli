(** First-order terms for the Prolog inference engine that powers
    Kaskade's constraint-based view enumeration (paper §IV).

    Variables are represented by integer ids; the parser assigns ids to
    named variables and the engine allocates fresh ids when renaming
    clauses apart. Lists use the conventional ['.'/2] functor with
    [[]] as nil. *)

type t =
  | Atom of string
  | Int of int
  | Var of int
  | Compound of string * t array

val atom : string -> t
val int : int -> t
val compound : string -> t list -> t
(** [compound f args] is [Atom f] when [args] is empty. *)

val nil : t
val cons : t -> t -> t
val list_of : t list -> t
(** Proper list term. *)

val to_list : t -> t list option
(** Inverse of {!list_of}; [None] when the term is not a proper list. *)

val functor_of : t -> (string * int) option
(** Name/arity of an atom or compound; [None] for variables and ints. *)

val args_of : t -> t array

val max_var : t -> int
(** Largest variable id occurring in the term, or [-1] if none. *)

val rename : offset:int -> t -> t
(** Shift every variable id by [offset] (clause renaming-apart). *)

val compare : t -> t -> int
(** Standard order of terms: Var < Int < Atom < Compound, compounds by
    arity, then name, then args. *)

val to_string : t -> string
