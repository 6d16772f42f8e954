(** Operator-precedence parser for Prolog terms and programs.

    Handles the operators Kaskade's rule library uses (clause neck
    [:-], control [;], [->], [,], negation [\+], [=], [is], [>], [>=],
    [+], [-] and the [setof] witness [^]), compound terms, negative
    integer literals, and list syntax — enough to parse the paper's
    constraint-mining rules and view templates verbatim. *)

exception Parse_error of string

type clause = {
  head : Term.t;
  body : Term.t;  (** [Atom "true"] for facts. *)
  nvars : int;  (** Number of distinct variables; ids are [0..nvars-1]. *)
}

val parse_query : string -> Term.t * (string * int) list
(** Parse a single term (a trailing dot is optional); also returns the
    variable-name -> id mapping so callers can report bindings by
    name. Underscore variables are anonymous (each occurrence fresh)
    and omitted from the mapping. *)

val parse_program : string -> clause list
(** Parse a sequence of dot-terminated clauses. A term [H :- B] yields
    head/body; any other term is a fact. *)
