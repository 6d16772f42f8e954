type t = { tbl : (string * int, Parser.clause list ref) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let key_of_clause (c : Parser.clause) =
  match Term.functor_of c.head with
  | Some key -> key
  | None -> invalid_arg "Db: clause head is not callable"

let assertz t c =
  let key = key_of_clause c in
  match Hashtbl.find_opt t.tbl key with
  | Some cell -> cell := !cell @ [ c ]
  | None -> Hashtbl.add t.tbl key (ref [ c ])

let add_fact t head = assertz t { head; body = Term.Atom "true"; nvars = Term.max_var head + 1 }

let clauses t name arity =
  match Hashtbl.find_opt t.tbl (name, arity) with Some cell -> !cell | None -> []

let load t src = List.iter (assertz t) (Parser.parse_program src)
