open Kaskade_query

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Paper Listing 1: the job blast-radius query. *)
let listing1 =
  "SELECT A.pipelineName, AVG(T_CPU) FROM (\n\
   SELECT A, SUM(B.CPU) AS T_CPU FROM (\n\
   MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File)\n\
   (q_f1:File)-[r*0..8]->(q_f2:File)\n\
   (q_f2:File)-[:IS_READ_BY]->(q_j2:Job)\n\
   RETURN q_j1 as A, q_j2 as B\n\
   ) GROUP BY A, B\n\
   ) GROUP BY A.pipelineName"

(* Paper Listing 4: the same query rewritten over a 2-hop connector. *)
let listing4 =
  "SELECT A.pipelineName, AVG(T_CPU) FROM (\n\
   SELECT A, SUM(B.CPU) AS T_CPU FROM (\n\
   MATCH (q_j1:Job)-[:JOB_TO_JOB_2HOP*1..4]->(q_j2:Job)\n\
   RETURN q_j1 as A, q_j2 as B\n\
   ) GROUP BY A, B\n\
   ) GROUP BY A.pipelineName"

let prov_schema = Kaskade_gen.Provenance_gen.schema

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lexer_keywords_case_insensitive () =
  match Qlexer.tokenize "select Match RETURN" with
  | [ Qlexer.KEYWORD "SELECT"; Qlexer.KEYWORD "MATCH"; Qlexer.KEYWORD "RETURN"; Qlexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords not normalized"

let test_lexer_identifiers_keep_case () =
  match Qlexer.tokenize "WRITES_TO q_j1" with
  | [ Qlexer.IDENT "WRITES_TO"; Qlexer.IDENT "q_j1"; Qlexer.EOF ] -> ()
  | _ -> Alcotest.fail "identifiers mangled"

let test_lexer_arrows_and_ranges () =
  let toks = Qlexer.tokenize "-[r*0..8]->" in
  check_bool "dotdot" true (List.mem Qlexer.DOTDOT toks);
  check_bool "arrow" true (List.mem Qlexer.ARROW_RIGHT toks);
  check_bool "star" true (List.mem Qlexer.STAR toks)

let test_lexer_floats_vs_ranges () =
  (match Qlexer.tokenize "1.5" with
  | [ Qlexer.FLOAT_LIT f; Qlexer.EOF ] -> Alcotest.(check (float 1e-9)) "float" 1.5 f
  | _ -> Alcotest.fail "float");
  match Qlexer.tokenize "1..5" with
  | [ Qlexer.INT_LIT 1; Qlexer.DOTDOT; Qlexer.INT_LIT 5; Qlexer.EOF ] -> ()
  | _ -> Alcotest.fail "range"

let test_lexer_strings () =
  match Qlexer.tokenize "'it''s'" with
  | [ Qlexer.STRING_LIT "it's"; Qlexer.EOF ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lexer_comments () =
  match Qlexer.tokenize "a -- comment\nb" with
  | [ Qlexer.IDENT "a"; Qlexer.IDENT "b"; Qlexer.EOF ] -> ()
  | _ -> Alcotest.fail "comment not skipped"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_listing1_structure () =
  match Qparser.parse listing1 with
  | Ast.Select outer -> begin
    check_int "outer items" 2 (List.length outer.Ast.items);
    check_int "outer group by" 1 (List.length outer.Ast.group_by);
    match outer.Ast.from with
    | Ast.From_select inner -> begin
      match inner.Ast.from with
      | Ast.From_match mb ->
        check_int "three juxtaposed patterns" 3 (List.length mb.Ast.patterns);
        check_int "two returns" 2 (List.length mb.Ast.returns)
      | _ -> Alcotest.fail "expected MATCH innermost"
    end
    | _ -> Alcotest.fail "expected nested SELECT"
  end
  | _ -> Alcotest.fail "expected SELECT"

let test_parse_var_length () =
  let q = Qparser.parse "MATCH (a:File)-[r*0..8]->(b:File) RETURN a" in
  match Ast.patterns_of q with
  | [ { Ast.p_steps = [ (e, _) ]; _ } ] -> begin
    match e.Ast.e_len with
    | Ast.Var_length (0, 8) -> check_bool "var named" true (e.Ast.e_var = Some "r")
    | _ -> Alcotest.fail "wrong length"
  end
  | _ -> Alcotest.fail "wrong pattern"

let test_parse_var_length_forms () =
  let len src =
    match Ast.patterns_of (Qparser.parse src) with
    | [ { Ast.p_steps = [ (e, _) ]; _ } ] -> e.Ast.e_len
    | _ -> Alcotest.fail "pattern"
  in
  check_bool "star" true (len "MATCH (a)-[*]->(b) RETURN a" = Ast.Var_length (1, max_int));
  check_bool "star k" true (len "MATCH (a)-[*3]->(b) RETURN a" = Ast.Var_length (3, 3));
  check_bool "star range" true (len "MATCH (a)-[*1..4]->(b) RETURN a" = Ast.Var_length (1, 4));
  check_bool "single" true (len "MATCH (a)-[:E]->(b) RETURN a" = Ast.Single)

let test_parse_backward_edge () =
  let q = Qparser.parse "MATCH (j:Job)<-[r*1..4]-(anc:Job) RETURN j, anc" in
  match Ast.patterns_of q with
  | [ { Ast.p_steps = [ (e, _) ]; _ } ] -> check_bool "backward" true (e.Ast.e_dir = Ast.Bwd)
  | _ -> Alcotest.fail "pattern"

let test_parse_where () =
  let q = Qparser.parse "MATCH (j:Job) WHERE j.CPU > 100 AND NOT j.CPU > 400 RETURN j" in
  match q with
  | Ast.Match_only mb -> check_bool "where present" true (mb.Ast.m_where <> None)
  | _ -> Alcotest.fail "match"

let test_parse_comma_patterns () =
  let q = Qparser.parse "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b" in
  check_int "two patterns" 2 (List.length (Ast.patterns_of q))

let test_parse_call () =
  match Qparser.parse "CALL algo.labelPropagation(25)" with
  | Ast.Call { proc = "algo.labelPropagation"; proc_args = [ Kaskade_graph.Value.Int 25 ] } -> ()
  | _ -> Alcotest.fail "call"

let test_parse_call_string_arg () =
  match Qparser.parse "CALL algo.largestCommunity('Job')" with
  | Ast.Call { proc_args = [ Kaskade_graph.Value.Str "Job" ]; _ } -> ()
  | _ -> Alcotest.fail "call arg"

let test_parse_expression_precedence () =
  match Qparser.parse_expr "1 + 2 * 3 > 6 AND TRUE" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Gt, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)), _), _) -> ()
  | e -> Alcotest.fail ("precedence: " ^ Ast.expr_to_string e)

let test_parse_aggregates () =
  (match Qparser.parse_expr "SUM(x.CPU) / COUNT(*)" with
  | Ast.Binop (Ast.Div, Ast.Agg (Ast.Sum, _), Ast.Count_star) -> ()
  | _ -> Alcotest.fail "agg expr");
  check_bool "has_aggregate" true (Ast.has_aggregate (Qparser.parse_expr "1 + MAX(y)"));
  check_bool "no aggregate" false (Ast.has_aggregate (Qparser.parse_expr "1 + y"))

let test_parse_errors () =
  let fails src = try ignore (Qparser.parse src); false with Qparser.Parse_error _ -> true in
  check_bool "garbage" true (fails "FOO BAR");
  check_bool "missing return" true (fails "MATCH (a)");
  check_bool "unclosed paren" true (fails "SELECT a FROM (MATCH (x) RETURN x");
  check_bool "bad range" true (fails "MATCH (a)-[*1..]->(b) RETURN a")

(* An integer literal past [max_int] — a LIMIT or a var-length bound —
   is a positioned parse error at the literal's first byte, not an
   untyped [Failure] out of the lexer. *)
let test_parse_int_literal_range () =
  let positioned src col =
    match Kaskade.parse_result src with
    | Error (Kaskade.Error.Parse { line; col = c; _ }) ->
      check_int (src ^ ": line") 1 line;
      check_int (src ^ ": col") col c
    | Error e -> Alcotest.failf "%s: not a parse error: %s" src (Kaskade.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: parsed" src
  in
  positioned "MATCH (a)-[r]->(b) RETURN a LIMIT 99999999999999999999999" 35;
  positioned "MATCH (a)-[r*1..99999999999999999999]->(b) RETURN a" 17;
  check_bool "max_int still lexes" true
    (Result.is_ok
       (Kaskade.parse_result
          (Printf.sprintf "SELECT a FROM (MATCH (a)-[r*1..%d]->(b) RETURN a) LIMIT %d" max_int
             max_int)))

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip                                           *)

let roundtrip src =
  let q = Qparser.parse src in
  let printed = Pretty.to_string q in
  let q2 = Qparser.parse printed in
  check_string "stable under reprint" printed (Pretty.to_string q2)

let test_roundtrip_listing1 () = roundtrip listing1
let test_roundtrip_listing4 () = roundtrip listing4
let test_roundtrip_match () = roundtrip "MATCH (j:Job)<-[r*1..4]-(anc:Job) WHERE j.CPU > 10 RETURN j, anc"
let test_roundtrip_call () = roundtrip "CALL algo.labelPropagation(25)"

let test_roundtrip_count () =
  roundtrip "SELECT COUNT(*) FROM (MATCH (a)-[r]->(b) RETURN a)"


let test_parse_order_by_limit () =
  match Qparser.parse "SELECT j.CPU AS c FROM (MATCH (j:Job) RETURN j) ORDER BY c DESC, j.name LIMIT 5" with
  | Ast.Select sb ->
    check_int "two order keys" 2 (List.length sb.Ast.order_by);
    check_bool "first desc" true (snd (List.hd sb.Ast.order_by) = Ast.Desc);
    check_bool "second asc" true (snd (List.nth sb.Ast.order_by 1) = Ast.Asc);
    check_bool "limit" true (sb.Ast.limit = Some 5)
  | _ -> Alcotest.fail "select"

let test_roundtrip_order_limit () =
  roundtrip "SELECT j.CPU AS c FROM (MATCH (j:Job) RETURN j) ORDER BY c DESC LIMIT 3"

let test_parse_distinct () =
  match Qparser.parse "SELECT DISTINCT j FROM (MATCH (j:Job) RETURN j)" with
  | Ast.Select sb -> check_bool "distinct flag" true sb.Ast.distinct
  | _ -> Alcotest.fail "select";;

let test_roundtrip_distinct () =
  roundtrip "SELECT DISTINCT j.name FROM (MATCH (j:Job) RETURN j)"

(* ------------------------------------------------------------------ *)
(* Analyze                                                             *)

let test_analyze_listing1 () =
  let s = Analyze.check prov_schema (Qparser.parse listing1) in
  Alcotest.(check (list (pair string string)))
    "vertex types"
    [ ("q_f1", "File"); ("q_f2", "File"); ("q_j1", "Job"); ("q_j2", "Job") ]
    s.Analyze.vertex_types;
  check_int "two labeled edges" 2 (List.length s.Analyze.edges);
  Alcotest.(check (list (pair string (pair string (pair int int)))))
    "var length path"
    [ ("q_f1", ("q_f2", (0, 8))) ]
    (List.map (fun (a, b, lo, hi) -> (a, (b, (lo, hi)))) s.Analyze.var_length_paths);
  Alcotest.(check (list string)) "returned" [ "q_j1"; "q_j2" ] s.Analyze.returned_vars

let test_analyze_infers_types_from_edges () =
  let s = Analyze.check prov_schema (Qparser.parse "MATCH (a)-[:WRITES_TO]->(b) RETURN a, b") in
  check_bool "a inferred Job" true (Analyze.infer_vertex_type s "a" = Some "Job");
  check_bool "b inferred File" true (Analyze.infer_vertex_type s "b" = Some "File")

let test_analyze_backward_normalized () =
  let s = Analyze.check prov_schema (Qparser.parse "MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN j") in
  Alcotest.(check (list (pair string string)))
    "edge normalized to forward"
    [ ("j", "f") ]
    (List.map (fun (a, b, _) -> (a, b)) s.Analyze.edges)

let test_analyze_errors () =
  let fails src =
    try
      ignore (Analyze.check prov_schema (Qparser.parse src));
      false
    with Analyze.Semantic_error _ -> true
  in
  check_bool "unknown vertex type" true (fails "MATCH (x:Ghost) RETURN x");
  check_bool "unknown edge type" true (fails "MATCH (a)-[:GHOST]->(b) RETURN a");
  check_bool "type conflict" true (fails "MATCH (a:Job)-[:IS_READ_BY]->(b) RETURN a");
  check_bool "bad var length" true (fails "MATCH (a)-[r*4..2]->(b) RETURN a");
  check_bool "unbound return" true (fails "MATCH (a:Job) RETURN zz")

let test_analyze_conflicting_var_types () =
  let fails =
    try
      ignore
        (Analyze.check prov_schema
           (Qparser.parse "MATCH (x:Job)-[:WRITES_TO]->(f:File), (x:File)-[:IS_READ_BY]->(j:Job) RETURN j"));
      false
    with Analyze.Semantic_error _ -> true
  in
  check_bool "conflict detected" true fails

(* Anonymous nodes are numbered per call: checks racing on two
   domains produce the serial summary every time. *)
let test_analyze_parallel_anon () =
  let q =
    Qparser.parse "MATCH (a:Job)-[:WRITES_TO]->(:File)-[:IS_READ_BY]->(b:Job), (:Job)-[:WRITES_TO]->(f:File) RETURN a, b"
  in
  let serial = Analyze.check prov_schema q in
  check_bool "summary names anonymous nodes" true
    (List.mem_assoc "_anon1" serial.Analyze.vertex_types && List.mem_assoc "_anon2" serial.Analyze.vertex_types);
  let run () =
    let same = ref 0 in
    for _ = 1 to 500 do
      if Analyze.check prov_schema q = serial then incr same
    done;
    !same
  in
  let domains = List.init 2 (fun _ -> Domain.spawn run) in
  List.iter (fun d -> check_int "every summary equals the serial one" 500 (Domain.join d)) domains

(* ------------------------------------------------------------------ *)
(* AST utilities                                                       *)

let test_map_patterns () =
  let q = Qparser.parse listing1 in
  let n = ref 0 in
  let q' = Ast.map_patterns (fun p -> incr n; p) q in
  check_int "visits all patterns" 3 !n;
  check_string "identity map" (Pretty.to_string q) (Pretty.to_string q')

let test_item_name () =
  check_string "alias" "A" (Ast.item_name 0 { Ast.item_expr = Ast.Var "x"; alias = Some "A" });
  check_string "var" "x" (Ast.item_name 0 { Ast.item_expr = Ast.Var "x"; alias = None });
  check_string "prop" "x.p" (Ast.item_name 0 { Ast.item_expr = Ast.Prop ("x", "p"); alias = None });
  check_string "fallback" "col3"
    (Ast.item_name 3 { Ast.item_expr = Ast.Count_star; alias = None })

let () =
  Alcotest.run "kaskade_query"
    [
      ( "lexer",
        [
          Alcotest.test_case "keywords case-insensitive" `Quick test_lexer_keywords_case_insensitive;
          Alcotest.test_case "identifiers keep case" `Quick test_lexer_identifiers_keep_case;
          Alcotest.test_case "arrows and ranges" `Quick test_lexer_arrows_and_ranges;
          Alcotest.test_case "floats vs ranges" `Quick test_lexer_floats_vs_ranges;
          Alcotest.test_case "strings" `Quick test_lexer_strings;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
        ] );
      ( "parser",
        [
          Alcotest.test_case "listing 1 structure" `Quick test_parse_listing1_structure;
          Alcotest.test_case "variable length" `Quick test_parse_var_length;
          Alcotest.test_case "variable length forms" `Quick test_parse_var_length_forms;
          Alcotest.test_case "backward edge" `Quick test_parse_backward_edge;
          Alcotest.test_case "where clause" `Quick test_parse_where;
          Alcotest.test_case "comma patterns" `Quick test_parse_comma_patterns;
          Alcotest.test_case "call" `Quick test_parse_call;
          Alcotest.test_case "call string arg" `Quick test_parse_call_string_arg;
          Alcotest.test_case "expression precedence" `Quick test_parse_expression_precedence;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "out-of-range int literal" `Quick test_parse_int_literal_range;
          Alcotest.test_case "order by / limit" `Quick test_parse_order_by_limit;
          Alcotest.test_case "distinct" `Quick test_parse_distinct;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip listing 1" `Quick test_roundtrip_listing1;
          Alcotest.test_case "roundtrip listing 4" `Quick test_roundtrip_listing4;
          Alcotest.test_case "roundtrip match" `Quick test_roundtrip_match;
          Alcotest.test_case "roundtrip call" `Quick test_roundtrip_call;
          Alcotest.test_case "roundtrip count" `Quick test_roundtrip_count;
          Alcotest.test_case "roundtrip order/limit" `Quick test_roundtrip_order_limit;
          Alcotest.test_case "roundtrip distinct" `Quick test_roundtrip_distinct;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "listing 1 summary" `Quick test_analyze_listing1;
          Alcotest.test_case "type inference" `Quick test_analyze_infers_types_from_edges;
          Alcotest.test_case "backward normalized" `Quick test_analyze_backward_normalized;
          Alcotest.test_case "errors" `Quick test_analyze_errors;
          Alcotest.test_case "conflicting var types" `Quick test_analyze_conflicting_var_types;
          Alcotest.test_case "parallel anonymous numbering" `Quick test_analyze_parallel_anon;
        ] );
      ( "ast",
        [
          Alcotest.test_case "map_patterns" `Quick test_map_patterns;
          Alcotest.test_case "item_name" `Quick test_item_name;
        ] );
    ]
