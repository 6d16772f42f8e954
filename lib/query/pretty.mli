(** Render queries back to source text. [parse (to_string q)] is
    structurally equal to [q] (round-trip property tested). Used to
    display rewritten queries (paper Listing 4). *)

val pattern_to_string : Ast.pattern -> string
val to_string : Ast.t -> string
