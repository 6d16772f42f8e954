open Kaskade_prolog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_engine ?(src = "") () =
  let db = Db.create () in
  Db.load db src;
  Engine.create db

let holds e goal = Engine.all_solutions e goal <> []

let first_binding e goal var =
  match Engine.all_solutions e goal with
  | bindings :: _ -> Term.to_string (List.assoc var bindings)
  | [] -> "<no solution>"

let all_bindings e goal var =
  List.map (fun b -> Term.to_string (List.assoc var b)) (Engine.all_solutions e goal)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "foo(X, 'Hello World', 42)." in
  check_int "token count" 10 (List.length toks);
  match toks with
  | Lexer.ATOM "foo" :: Lexer.LPAREN :: Lexer.VAR "X" :: Lexer.COMMA :: Lexer.ATOM "Hello World" :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_comments () =
  let toks = Lexer.tokenize "a. % line comment\n/* block\ncomment */ b." in
  check_int "comments dropped" 5 (List.length toks)

let test_lexer_operators () =
  let toks = Lexer.tokenize "X is Y + 1" in
  check_bool "has is" true (List.mem (Lexer.ATOM "is") toks);
  check_bool "has plus" true (List.mem (Lexer.ATOM "+") toks)

let test_lexer_quoted_escape () =
  match Lexer.tokenize "'it''s'" with
  | [ Lexer.ATOM "it's"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "quote escape failed"

let test_lexer_error () =
  Alcotest.check_raises "unterminated" (Lexer.Lex_error ("unterminated quoted atom", 0)) (fun () ->
      ignore (Lexer.tokenize "'oops"))

let test_lexer_negative_via_parser () =
  let t, _ = Parser.parse_query "-5" in
  check_string "negative literal" "-5" (Term.to_string t)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parser_fact () =
  let t, _ = Parser.parse_query "edge(a, b)" in
  check_string "fact" "edge(a, b)" (Term.to_string t)

let test_parser_clause () =
  let cs = Parser.parse_program "p(X) :- q(X), r(X)." in
  check_int "one clause" 1 (List.length cs);
  let c = List.hd cs in
  check_string "head" "p(_G0)" (Term.to_string c.Parser.head);
  check_bool "body is conjunction" true
    (match c.Parser.body with Term.Compound (",", _) -> true | _ -> false)

let test_parser_operator_precedence () =
  let t, _ = Parser.parse_query "X is 1 + 2, Y = 3" in
  match t with
  | Term.Compound
      ( ",",
        [| Term.Compound ("is", [| _; Term.Compound ("+", [| Term.Int 1; Term.Int 2 |]) |]);
           Term.Compound ("=", _) |] ) ->
    ()
  | _ -> Alcotest.fail ("wrong precedence: " ^ Term.to_string t)

let test_parser_left_assoc () =
  let t, _ = Parser.parse_query "1 - 2 - 3" in
  match t with
  | Term.Compound ("-", [| Term.Compound ("-", [| Term.Int 1; Term.Int 2 |]); Term.Int 3 |]) -> ()
  | _ -> Alcotest.fail ("wrong associativity: " ^ Term.to_string t)

let test_parser_lists () =
  let t, _ = Parser.parse_query "[1, 2 | T]" in
  match t with
  | Term.Compound (".", [| Term.Int 1; Term.Compound (".", [| Term.Int 2; Term.Var _ |]) |]) -> ()
  | _ -> Alcotest.fail ("wrong list: " ^ Term.to_string t)

let test_parser_empty_list () =
  let t, _ = Parser.parse_query "[]" in
  check_bool "nil" true (t = Term.nil)

let test_parser_var_identity () =
  let t, vars = Parser.parse_query "p(X, Y, X)" in
  check_int "two distinct vars" 2 (List.length vars);
  match t with
  | Term.Compound ("p", [| Term.Var a; Term.Var b; Term.Var c |]) ->
    check_bool "X shared" true (a = c);
    check_bool "Y distinct" true (a <> b)
  | _ -> Alcotest.fail "bad term"

let test_parser_anonymous_vars () =
  let t, vars = Parser.parse_query "p(_, _)" in
  check_int "anon not named" 0 (List.length vars);
  match t with
  | Term.Compound ("p", [| Term.Var a; Term.Var b |]) -> check_bool "each _ fresh" true (a <> b)
  | _ -> Alcotest.fail "bad term"

let test_parser_program_multi () =
  let cs = Parser.parse_program "a. b. c(X) :- a, b." in
  check_int "three clauses" 3 (List.length cs)

let test_parser_error () =
  check_bool "raises" true
    (try
       ignore (Parser.parse_program "p(X :- q.");
       false
     with Parser.Parse_error _ -> true)

let test_parser_negation_sugar () =
  let t, _ = Parser.parse_query "\\+ p(X)" in
  match t with Term.Compound ("\\+", _) -> () | _ -> Alcotest.fail "negation parse"

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)

let test_term_list_roundtrip () =
  let items = [ Term.int 1; Term.atom "x"; Term.Var 0 ] in
  match Term.to_list (Term.list_of items) with
  | Some back -> check_bool "roundtrip" true (items = back)
  | None -> Alcotest.fail "not a list"

let test_term_compare_order () =
  check_bool "var < int" true (Term.compare (Term.Var 0) (Term.int 5) < 0);
  check_bool "int < atom" true (Term.compare (Term.int 5) (Term.atom "a") < 0);
  check_bool "atom < compound" true
    (Term.compare (Term.atom "z") (Term.compound "a" [ Term.int 1 ]) < 0)

let test_term_rename () =
  let t = Term.compound "f" [ Term.Var 0; Term.Var 1 ] in
  let r = Term.rename ~offset:10 t in
  check_int "max var" 11 (Term.max_var r)

(* ------------------------------------------------------------------ *)
(* Unification                                                         *)

let test_unify_basic () =
  let b = Bindings.create () in
  check_bool "var binds" true (Bindings.unify b (Term.Var 0) (Term.atom "a"));
  check_string "resolved" "a" (Term.to_string (Bindings.resolve b (Term.Var 0)))

let test_unify_shared_vars () =
  let b = Bindings.create () in
  let t1 = Term.compound "f" [ Term.Var 0; Term.Var 0 ] in
  let t2 = Term.compound "f" [ Term.atom "a"; Term.Var 1 ] in
  check_bool "unifies" true (Bindings.unify b t1 t2);
  check_string "transitively bound" "a" (Term.to_string (Bindings.resolve b (Term.Var 1)))

let test_unify_mismatch () =
  let b = Bindings.create () in
  check_bool "atom clash" false (Bindings.unify b (Term.atom "a") (Term.atom "b"));
  check_bool "arity clash" false
    (Bindings.unify b (Term.compound "f" [ Term.int 1 ]) (Term.compound "f" [ Term.int 1; Term.int 2 ]))

let test_unify_undo () =
  let b = Bindings.create () in
  let m = Bindings.mark b in
  ignore (Bindings.unify b (Term.Var 0) (Term.atom "a"));
  Bindings.undo_to b m;
  match Bindings.walk b (Term.Var 0) with
  | Term.Var 0 -> ()
  | t -> Alcotest.fail ("binding survived undo: " ^ Term.to_string t)

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

let family =
  {|
    parent(tom, bob). parent(tom, liz).
    parent(bob, ann). parent(bob, pat).
    parent(pat, jim).
    ancestor(X, Y) :- parent(X, Y).
    ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
  |}

let test_engine_facts () =
  let e = fresh_engine ~src:family () in
  check_bool "fact holds" true (holds e "parent(tom, bob)");
  check_bool "fact fails" false (holds e "parent(bob, tom)")

let test_engine_recursion () =
  let e = fresh_engine ~src:family () in
  let descendants = all_bindings e "ancestor(tom, X)" "X" in
  Alcotest.(check (list string)) "all descendants" [ "bob"; "liz"; "ann"; "pat"; "jim" ] descendants

let test_engine_conjunction_backtracking () =
  let e = fresh_engine ~src:family () in
  let pairs = Engine.all_solutions e "parent(X, Y), parent(Y, Z)" in
  check_int "grandparent pairs" 3 (List.length pairs)

let test_engine_arithmetic () =
  let e = fresh_engine () in
  check_string "is" "6" (first_binding e "X is 1 + 2 + 3" "X");
  check_string "neg" "-4" (first_binding e "X is 3 - 7" "X");
  check_string "negative literal" "-1" (first_binding e "X is -5 + 4" "X");
  check_bool "comparison" true (holds e "5 > 1, 2 >= 2, 4 >= 3");
  check_bool "comparison fails" false (holds e "1 > 1");
  check_bool "integer" true (holds e "integer(3)");
  check_bool "not integer" false (holds e "integer(a)");
  let raises goal = try ignore (holds e goal); false with Engine.Runtime_error _ -> true in
  check_bool "unknown operator raises" true (raises "X is max(2, 3)");
  check_bool "atom operand raises" true (raises "X is 2 + a")

let test_engine_between () =
  let e = fresh_engine () in
  Alcotest.(check (list string)) "between enumerates" [ "2"; "3"; "4" ]
    (all_bindings e "between(2, 4, X)" "X");
  check_bool "between checks" true (holds e "between(1, 10, 5)");
  check_bool "between rejects" false (holds e "between(1, 10, 11)")

let test_engine_negation () =
  let e = fresh_engine ~src:family () in
  check_bool "naf holds" true (holds e "not(parent(jim, _))");
  check_bool "naf fails" false (holds e "\\+ parent(tom, bob)");
  check_string "no leak" "tom" (first_binding e "X = tom, \\+ parent(X, jim)" "X")

let test_engine_setof () =
  let e = fresh_engine ~src:"p(3). p(1). p(3). p(2)." () in
  check_string "sorted dedup" "[1, 2, 3]" (first_binding e "setof(X, p(X), L)" "L");
  check_bool "setof empty fails" false (holds e "setof(X, q_undefined(X), _)")

let test_engine_setof_witness () =
  let e = fresh_engine ~src:"r(a, 1). r(b, 2). r(a, 3)." () in
  check_string "witness stripped" "[a, b]" (first_binding e "setof(X, Y^r(X, Y), L)" "L")

let test_engine_if_then_else () =
  let e = fresh_engine ~src:family () in
  check_string "then" "yes" (first_binding e "( parent(tom, bob) -> R = yes ; R = no )" "R");
  check_string "else" "no" (first_binding e "( parent(bob, tom) -> R = yes ; R = no )" "R")

let test_engine_cut () =
  let e = fresh_engine ~src:"n(1). n(2). n(3). first(X) :- n(X), !." () in
  Alcotest.(check (list string)) "cut stops at first" [ "1" ] (all_bindings e "first(X)" "X")

let test_engine_unknown_predicate_fails () =
  let e = fresh_engine () in
  check_bool "silently fails" false (holds e "totally_unknown(1)")

let test_engine_budget () =
  let db = Db.create () in
  Db.load db "loop :- loop.";
  let e = Engine.create ~step_limit:10_000 db in
  check_bool "budget raises" true
    (try
       ignore (holds e "loop");
       false
     with Engine.Budget_exceeded _ -> true)

let test_engine_steps_counted () =
  let e = fresh_engine ~src:family () in
  Engine.reset_steps e;
  ignore (Engine.all_solutions e "ancestor(tom, X)");
  check_bool "steps > 0" true (Engine.steps e > 0)

let test_engine_if_then_no_else () =
  let e = fresh_engine ~src:family () in
  check_bool "then-only succeeds" true (holds e "( parent(tom, bob) -> true )");
  check_bool "then-only fails" false (holds e "( parent(bob, tom) -> true )")

let test_engine_ite_condition_binds () =
  let e = fresh_engine ~src:family () in
  (* Bindings from the first solution of the condition persist into
     the then-branch. *)
  check_string "cond binding flows" "bob"
    (first_binding e "( parent(tom, X) -> R = X ; R = none )" "R")

let test_engine_deep_recursion_trail () =
  (* A long chain exercises trail growth/undo. *)
  let chain = Buffer.create 1024 in
  for i = 0 to 200 do
    Buffer.add_string chain (Printf.sprintf "e(n%d, n%d). " i (i + 1))
  done;
  Buffer.add_string chain "path(X, Y) :- e(X, Y). path(X, Y) :- e(X, Z), path(Z, Y).";
  let e = fresh_engine ~src:(Buffer.contents chain) () in
  check_bool "long chain reachable" true (holds e "path(n0, n201)");
  check_bool "unreachable" false (holds e "path(n201, n0)")

let test_term_pp_quoting () =
  check_string "quoted atom" "'Hello World'" (Term.to_string (Term.atom "Hello World"));
  check_string "plain atom" "abc" (Term.to_string (Term.atom "abc"));
  check_string "operator atom" ":-" (Term.to_string (Term.atom ":-"))

let test_engine_var_goal_error () =
  let e = fresh_engine () in
  check_bool "unbound goal raises" true
    (try ignore (holds e "X"); false with Engine.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let small_int_list = QCheck.(list_of_size Gen.(0 -- 8) (0 -- 20))

let list_term xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

(* List programs the properties run; the engine has no list library. *)
let list_program =
  {|
  reverse(L, R) :- reverse_acc(L, [], R).
  reverse_acc([], Acc, Acc).
  reverse_acc([H|T], Acc, R) :- reverse_acc(T, [H|Acc], R).
  append([], L, L).
  append([H|T], L, [H|R]) :- append(T, L, R).
  len([], 0).
  len([_|T], N) :- len(T, N1), N is N1 + 1.
  |}

let prop_reverse_involution =
  QCheck.Test.make ~name:"reverse twice is identity (via engine)" ~count:50 small_int_list (fun xs ->
      let e = fresh_engine ~src:list_program () in
      let goal = Printf.sprintf "reverse(%s, R1), reverse(R1, R2)" (list_term xs) in
      first_binding e goal "R2" = list_term xs)

let prop_append_length =
  QCheck.Test.make ~name:"append length adds (via engine)" ~count:50
    (QCheck.pair small_int_list small_int_list) (fun (xs, ys) ->
      let e = fresh_engine ~src:list_program () in
      let goal = Printf.sprintf "append(%s, %s, L), len(L, N)" (list_term xs) (list_term ys) in
      first_binding e goal "N" = string_of_int (List.length xs + List.length ys))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_reverse_involution; prop_append_length ]

let () =
  Alcotest.run "kaskade_prolog"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "quoted escape" `Quick test_lexer_quoted_escape;
          Alcotest.test_case "error" `Quick test_lexer_error;
          Alcotest.test_case "negative int" `Quick test_lexer_negative_via_parser;
        ] );
      ( "parser",
        [
          Alcotest.test_case "fact" `Quick test_parser_fact;
          Alcotest.test_case "clause" `Quick test_parser_clause;
          Alcotest.test_case "precedence" `Quick test_parser_operator_precedence;
          Alcotest.test_case "left assoc" `Quick test_parser_left_assoc;
          Alcotest.test_case "lists" `Quick test_parser_lists;
          Alcotest.test_case "empty list" `Quick test_parser_empty_list;
          Alcotest.test_case "var identity" `Quick test_parser_var_identity;
          Alcotest.test_case "anonymous vars" `Quick test_parser_anonymous_vars;
          Alcotest.test_case "multi clause program" `Quick test_parser_program_multi;
          Alcotest.test_case "parse error" `Quick test_parser_error;
          Alcotest.test_case "negation sugar" `Quick test_parser_negation_sugar;
        ] );
      ( "term",
        [
          Alcotest.test_case "list roundtrip" `Quick test_term_list_roundtrip;
          Alcotest.test_case "standard order" `Quick test_term_compare_order;
          Alcotest.test_case "rename" `Quick test_term_rename;
        ] );
      ( "unify",
        [
          Alcotest.test_case "basic" `Quick test_unify_basic;
          Alcotest.test_case "shared vars" `Quick test_unify_shared_vars;
          Alcotest.test_case "mismatch" `Quick test_unify_mismatch;
          Alcotest.test_case "undo" `Quick test_unify_undo;
        ] );
      ( "engine",
        [
          Alcotest.test_case "facts" `Quick test_engine_facts;
          Alcotest.test_case "recursion" `Quick test_engine_recursion;
          Alcotest.test_case "conjunction backtracking" `Quick test_engine_conjunction_backtracking;
          Alcotest.test_case "arithmetic" `Quick test_engine_arithmetic;
          Alcotest.test_case "between" `Quick test_engine_between;
          Alcotest.test_case "negation" `Quick test_engine_negation;
          Alcotest.test_case "setof" `Quick test_engine_setof;
          Alcotest.test_case "setof with witness" `Quick test_engine_setof_witness;
          Alcotest.test_case "if-then-else" `Quick test_engine_if_then_else;
          Alcotest.test_case "cut" `Quick test_engine_cut;
          Alcotest.test_case "unknown predicate" `Quick test_engine_unknown_predicate_fails;
          Alcotest.test_case "step budget" `Quick test_engine_budget;
          Alcotest.test_case "steps counted" `Quick test_engine_steps_counted;
          Alcotest.test_case "if-then without else" `Quick test_engine_if_then_no_else;
          Alcotest.test_case "ite condition binding" `Quick test_engine_ite_condition_binds;
          Alcotest.test_case "deep recursion" `Quick test_engine_deep_recursion_trail;
          Alcotest.test_case "atom quoting" `Quick test_term_pp_quoting;
          Alcotest.test_case "unbound goal" `Quick test_engine_var_goal_error;
        ] );
      ("properties", qcheck_cases);
    ]
