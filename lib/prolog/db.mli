(** Clause database indexed by predicate name/arity, preserving
    insertion order (Prolog clause-selection semantics). *)

type t

val create : unit -> t

val add_fact : t -> Term.t -> unit
(** Append a fact (body [true]); the term must be ground or the caller
    takes responsibility for its variable numbering. *)

val clauses : t -> string -> int -> Parser.clause list
(** Clauses of [name/arity] in order; empty if unknown. *)

val load : t -> string -> unit
(** Parse a Prolog program and append all of its clauses. *)
