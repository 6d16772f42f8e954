open Kaskade_graph
open Kaskade_views
module K = Kaskade

let qok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected facade error: %s" (K.Error.to_string e)

let krun ks q = qok (K.query ks q)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Substring containment without the Str dependency. *)
let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let prov_schema = Kaskade_gen.Provenance_gen.schema

let lineage_schema =
  Schema.define ~vertices:[ "Job"; "File" ]
    ~edges:[ ("Job", "WRITES_TO", "File"); ("File", "IS_READ_BY", "Job") ]

(* Paper Listing 1. *)
let q1_text =
  "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1 as A, q_j2 as B) GROUP BY A, B) GROUP BY A.pipelineName"

let q2_text = "MATCH (j:Job)<-[r*1..4]-(anc:Job) RETURN j, anc"
let _q3_text = "MATCH (j:Job)-[r*1..4]->(desc:Job) RETURN j, desc"

let q1 = K.parse q1_text
let q2 = K.parse q2_text

let view_names (e : K.Enumerate.enumeration) =
  List.map (fun (c : K.Enumerate.candidate) -> View.name c.K.Enumerate.view) e.K.Enumerate.candidates

(* ------------------------------------------------------------------ *)
(* Facts (paper §IV-A1)                                                *)

let facts_to_string facts =
  String.concat "\n" (List.map (fun t -> Kaskade_prolog.Term.to_string t ^ ".") facts)

let test_query_facts_listing1 () =
  let facts = K.Facts.query_facts lineage_schema q1 in
  let s = facts_to_string facts in
  let contains needle = string_contains s needle in
  (* The exact facts of §IV-A1. *)
  List.iter
    (fun f -> check_bool f true (contains f))
    [ "queryVertex(q_f1)."; "queryVertex(q_f2)."; "queryVertex(q_j1)."; "queryVertex(q_j2).";
      "queryVertexType(q_f1, 'File')."; "queryVertexType(q_j1, 'Job').";
      "queryEdge(q_j1, q_f1)."; "queryEdge(q_f2, q_j2).";
      "queryEdgeType(q_j1, q_f1, 'WRITES_TO')."; "queryEdgeType(q_f2, q_j2, 'IS_READ_BY').";
      "queryVariableLengthPath(q_f1, q_f2, 0, 8)." ]

let test_query_facts_returned () =
  let facts = K.Facts.query_facts lineage_schema q1 in
  let s = facts_to_string facts in
  check_bool "q_j1 projected" true (string_contains s "queryReturned(q_j1).")

let test_schema_facts () =
  let s = facts_to_string (K.Facts.schema_facts lineage_schema) in
  List.iter
    (fun f ->
      check_bool f true (string_contains s f))
    [ "schemaVertex('Job')."; "schemaVertex('File').";
      "schemaEdge('Job', 'File', 'WRITES_TO')."; "schemaEdge('File', 'Job', 'IS_READ_BY')." ]

let test_homogeneous_untyped_vars_typed () =
  let homo = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "LINK", "V") ] in
  let q = K.parse "MATCH (a)-[r*1..4]->(b) RETURN a, b" in
  let s = facts_to_string (K.Facts.query_facts homo q) in
  check_bool "a typed V" true (string_contains s "queryVertexType(a, 'V')")

(* ------------------------------------------------------------------ *)
(* Enumeration (paper §IV-B)                                           *)

let test_enumeration_matches_paper_example () =
  (* §IV-B: for Listing 1, the kHopConnector instantiations for
     (q_j1, q_j2) are exactly K in {2, 4, 6, 8, 10}. *)
  let e = K.Enumerate.enumerate lineage_schema q1 in
  let khops =
    List.filter_map
      (fun (c : K.Enumerate.candidate) ->
        match c.K.Enumerate.view with
        | View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k }) -> Some k
        | _ -> None)
      e.K.Enumerate.candidates
  in
  Alcotest.(check (list int)) "paper's K values" [ 2; 4; 6; 8; 10 ] (List.sort compare khops)

let test_enumeration_bridges () =
  let e = K.Enumerate.enumerate lineage_schema q1 in
  let bridge =
    List.find_map
      (fun (c : K.Enumerate.candidate) ->
        match c.K.Enumerate.view with
        | View.Connector (View.K_hop { k = 2; _ }) -> c.K.Enumerate.bridges
        | _ -> None)
      e.K.Enumerate.candidates
  in
  check_bool "bridges q_j1 -> q_j2" true (bridge = Some ("q_j1", "q_j2"))

let test_enumeration_summarizer () =
  let e = K.Enumerate.enumerate prov_schema q1 in
  check_bool "keep Job+File summarizer" true
    (List.mem "KEEP_V_FILE_JOB" (view_names e))

let test_enumeration_no_summarizer_when_all_types_used () =
  (* Over the two-type schema, Q1 touches both types: no inclusion
     summarizer is proposed. *)
  let e = K.Enumerate.enumerate lineage_schema q1 in
  check_bool "no KEEP view" true
    (not (List.exists (fun n -> String.length n > 5 && String.sub n 0 5 = "KEEP_") (view_names e)))

let test_enumeration_q2_even_hops_only () =
  let e = K.Enumerate.enumerate lineage_schema q2 in
  let khops =
    List.filter_map
      (fun (c : K.Enumerate.candidate) ->
        match c.K.Enumerate.view with
        | View.Connector (View.K_hop { k; _ }) -> Some k
        | _ -> None)
      e.K.Enumerate.candidates
  in
  Alcotest.(check (list int)) "schema rules out odd K" [ 2; 4 ] (List.sort compare khops)

let test_enumeration_constraint_pruning () =
  (* The §IV claim: injected constraints shrink the search. On the
     full 5-type provenance schema the schema-only space grows with
     the number of k-length type paths (the paper's M^k argument). *)
  let constrained = K.Enumerate.enumerate prov_schema q1 in
  let unconstrained = K.Enumerate.enumerate_unconstrained prov_schema ~max_k:10 in
  check_bool "fewer candidates" true
    (List.length constrained.K.Enumerate.candidates
     < List.length unconstrained.K.Enumerate.candidates);
  check_bool "fewer inference steps" true
    (constrained.K.Enumerate.inference_steps < unconstrained.K.Enumerate.inference_steps)

let test_enumeration_unconstrained_space () =
  (* Schema 2-cycle: Job->File->Job. k-hop type paths up to 10 exist
     for every k (Job start for even k to Job, odd to File, plus File
     starts): 2 paths per k. *)
  let e = K.Enumerate.enumerate_unconstrained lineage_schema ~max_k:10 in
  check_int "schema-only candidates" 20 (List.length e.K.Enumerate.candidates)

let test_enumeration_deterministic () =
  let a = view_names (K.Enumerate.enumerate lineage_schema q1) in
  let b = view_names (K.Enumerate.enumerate lineage_schema q1) in
  Alcotest.(check (list string)) "stable" a b

let test_enumeration_homogeneous () =
  let homo = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "LINK", "V") ] in
  let q = K.parse "MATCH (a)-[r*1..4]->(b) RETURN a, b" in
  let e = K.Enumerate.enumerate homo q in
  let khops =
    List.filter_map
      (fun (c : K.Enumerate.candidate) ->
        match c.K.Enumerate.view with
        | View.Connector (View.K_hop { k; _ }) -> Some k
        | _ -> None)
      e.K.Enumerate.candidates
  in
  (* k = 1 over the only edge type would copy the graph, so it is not
     proposed. *)
  Alcotest.(check (list int)) "every k > 1 feasible" [ 2; 3; 4 ] (List.sort compare khops)


(* Candidate names and inference steps of every Table IV query (Q1 on
   prov only) and of the schema-only ablation at max K 2 and 4, on the
   four generators' schemas. A change to the rules, the facts or the
   engine that moves any of them shows here. *)
let enumeration_pins =
  [
    ( "prov Q1",
      3222,
      [ "JOB_TO_JOB_2HOP"; "JOB_TO_JOB_4HOP"; "JOB_TO_JOB_6HOP"; "JOB_TO_JOB_8HOP";
        "JOB_TO_JOB_10HOP"; "KEEP_V_FILE_JOB" ] );
    ( "prov Q2",
      645,
      [ "JOB_TO_JOB_2HOP"; "JOB_TO_JOB_4HOP"; "KEEP_V_FILE_JOB" ] );
    ( "prov Q3",
      645,
      [ "JOB_TO_JOB_2HOP"; "JOB_TO_JOB_4HOP"; "KEEP_V_FILE_JOB" ] );
    ( "prov Q4",
      168,
      [ "KEEP_V_JOB" ] );
    ( "prov max_k=2",
      1412,
      [ "JOB_TO_JOB_2HOP"; "JOB_TO_FILE_1HOP"; "JOB_TO_TASK_1HOP"; "JOB_TO_MACHINE_2HOP";
        "FILE_TO_JOB_1HOP"; "FILE_TO_FILE_2HOP"; "FILE_TO_TASK_2HOP"; "TASK_TO_MACHINE_1HOP";
        "USER_TO_JOB_1HOP"; "USER_TO_FILE_2HOP"; "USER_TO_TASK_2HOP" ] );
    ( "prov max_k=4",
      4414,
      [ "JOB_TO_JOB_2HOP"; "JOB_TO_JOB_4HOP"; "JOB_TO_FILE_1HOP"; "JOB_TO_FILE_3HOP";
        "JOB_TO_TASK_1HOP"; "JOB_TO_TASK_3HOP"; "JOB_TO_MACHINE_2HOP"; "JOB_TO_MACHINE_4HOP";
        "FILE_TO_JOB_1HOP"; "FILE_TO_JOB_3HOP"; "FILE_TO_FILE_2HOP"; "FILE_TO_FILE_4HOP";
        "FILE_TO_TASK_2HOP"; "FILE_TO_TASK_4HOP"; "FILE_TO_MACHINE_3HOP"; "TASK_TO_MACHINE_1HOP";
        "USER_TO_JOB_1HOP"; "USER_TO_JOB_3HOP"; "USER_TO_FILE_2HOP"; "USER_TO_FILE_4HOP";
        "USER_TO_TASK_2HOP"; "USER_TO_TASK_4HOP"; "USER_TO_MACHINE_3HOP" ] );
    ( "dblp Q2",
      563,
      [ "AUTHOR_TO_AUTHOR_2HOP"; "AUTHOR_TO_AUTHOR_4HOP"; "KEEP_V_AUTHOR_PUB" ] );
    ( "dblp Q3",
      563,
      [ "AUTHOR_TO_AUTHOR_2HOP"; "AUTHOR_TO_AUTHOR_4HOP"; "KEEP_V_AUTHOR_PUB" ] );
    ( "dblp Q4",
      168,
      [ "KEEP_V_AUTHOR" ] );
    ( "dblp max_k=2",
      465,
      [ "AUTHOR_TO_AUTHOR_2HOP"; "AUTHOR_TO_PUB_1HOP"; "AUTHOR_TO_VENUE_2HOP"; "PUB_TO_AUTHOR_1HOP";
        "PUB_TO_PUB_2HOP"; "PUB_TO_VENUE_1HOP" ] );
    ( "dblp max_k=4",
      1344,
      [ "AUTHOR_TO_AUTHOR_2HOP"; "AUTHOR_TO_AUTHOR_4HOP"; "AUTHOR_TO_PUB_1HOP";
        "AUTHOR_TO_PUB_3HOP"; "AUTHOR_TO_VENUE_2HOP"; "AUTHOR_TO_VENUE_4HOP"; "PUB_TO_AUTHOR_1HOP";
        "PUB_TO_AUTHOR_3HOP"; "PUB_TO_PUB_2HOP"; "PUB_TO_PUB_4HOP"; "PUB_TO_VENUE_1HOP";
        "PUB_TO_VENUE_3HOP" ] );
    ( "soc Q2",
      520,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "soc Q3",
      520,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "soc Q4",
      528,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "soc max_k=2",
      55,
      [ "V_TO_V_1HOP"; "V_TO_V_2HOP" ] );
    ( "soc max_k=4",
      140,
      [ "V_TO_V_1HOP"; "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "road Q2",
      520,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "road Q3",
      520,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "road Q4",
      528,
      [ "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
    ( "road max_k=2",
      55,
      [ "V_TO_V_1HOP"; "V_TO_V_2HOP" ] );
    ( "road max_k=4",
      140,
      [ "V_TO_V_1HOP"; "V_TO_V_2HOP"; "V_TO_V_3HOP"; "V_TO_V_4HOP" ] );
  ]

let test_enumeration_pinned () =
  let q2_q4 l =
    [ Printf.sprintf "MATCH (s:%s)<-[r*1..4]-(anc:%s) RETURN s, anc" l l;
      Printf.sprintf "MATCH (s:%s)-[r*1..4]->(desc:%s) RETURN s, desc" l l;
      Printf.sprintf
        "SELECT s, n, MAX(r) FROM (MATCH (s:%s)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n" l ]
  in
  let runs (name, schema, queries) =
    let first = if name = "prov" then 1 else 2 in
    List.mapi
      (fun i q -> (Printf.sprintf "%s Q%d" name (first + i), K.Enumerate.enumerate schema (K.parse q)))
      queries
    @ List.map
        (fun max_k ->
          ( Printf.sprintf "%s max_k=%d" name max_k,
            K.Enumerate.enumerate_unconstrained schema ~max_k ))
        [ 2; 4 ]
  in
  let actual =
    List.concat_map runs
      [ ("prov", prov_schema, q1_text :: q2_q4 "Job");
        ("dblp", Kaskade_gen.Dblp_gen.schema, q2_q4 "Author");
        ("soc", Kaskade_gen.Powerlaw_gen.schema, q2_q4 "V");
        ("road", Kaskade_gen.Road_gen.schema, q2_q4 "V") ]
  in
  Alcotest.(check (list string)) "runs" (List.map (fun (n, _, _) -> n) enumeration_pins)
    (List.map fst actual);
  List.iter2
    (fun (name, steps, names) (_, e) ->
      Alcotest.(check (list string)) (name ^ " candidates") names (view_names e);
      check_int (name ^ " inference steps") steps e.K.Enumerate.inference_steps)
    enumeration_pins actual

(* ------------------------------------------------------------------ *)
(* Rule library semantics (paper Listings 2 and 6)                     *)

let engine_for schema query =
  let facts = K.Facts.query_facts schema query @ K.Facts.schema_facts schema in
  let db = Kaskade_prolog.Db.create () in
  Kaskade_prolog.Db.load db K.Rules.all;
  K.Facts.assert_all db facts;
  Kaskade_prolog.Engine.create db

let holds_in e goal = Kaskade_prolog.Engine.all_solutions e goal <> []

let test_rules_member () =
  let e = engine_for lineage_schema q1 in
  Alcotest.(check (list string)) "member enumerates" [ "1"; "2"; "3" ]
    (List.map
       (fun b -> Kaskade_prolog.Term.to_string (List.assoc "X" b))
       (Kaskade_prolog.Engine.all_solutions e "member(X, [1, 2, 3])"));
  check_bool "member checks" true (holds_in e "member(b, [a, b])");
  check_bool "member rejects" false (holds_in e "member(c, [a, b])")

(* The rule base holds no dead rule and calls nothing the engine
   lacks: every predicate it defines is reachable from the four goals
   Enumerate queries, and every predicate it calls is defined there,
   asserted by Facts, or an engine builtin. A missing builtin would
   otherwise fail silently, as undefined predicates do. *)
let test_rules_closed () =
  let module P = Kaskade_prolog in
  let key = function
    | P.Term.Atom f -> (f, 0)
    | P.Term.Compound (f, args) -> (f, Array.length args)
    | t -> Alcotest.failf "not callable: %s" (P.Term.to_string t)
  in
  let rec strip_witness = function
    | P.Term.Compound ("^", [| _; g |]) -> strip_witness g
    | g -> g
  in
  let rec calls acc goal =
    let acc = key goal :: acc in
    match goal with
    | P.Term.Compound ((("," | ";" | "->"), [| a; b |])) -> calls (calls acc a) b
    | P.Term.Compound (("\\+" | "not"), [| g |]) -> calls acc g
    | P.Term.Compound ("setof", [| _; g; _ |]) -> calls acc (strip_witness g)
    | _ -> acc
  in
  let clauses = P.Parser.parse_program (K.Rules.all ^ K.Rules.unconstrained_templates) in
  let defined = List.sort_uniq compare (List.map (fun c -> key c.P.Parser.head) clauses) in
  let calls_of pred =
    List.concat_map
      (fun c -> if key c.P.Parser.head = pred then calls [] c.P.Parser.body else [])
      clauses
  in
  let goals =
    [ ("kHopConnector", 5); ("summarizerVertexInclusion", 1); ("summarizerRemoveEdges", 1);
      ("kHopConnectorNoQuery", 4) ]
  in
  let rec reach seen = function
    | [] -> seen
    | p :: rest when List.mem p seen || not (List.mem p defined) -> reach seen rest
    | p :: rest -> reach (p :: seen) (calls_of p @ rest)
  in
  let reachable = reach [] goals in
  Alcotest.(check (list (pair string int))) "unreachable rules" []
    (List.filter (fun p -> not (List.mem p reachable)) defined);
  let facts =
    List.map key (K.Facts.query_facts lineage_schema q1 @ K.Facts.schema_facts lineage_schema)
  in
  let called = List.sort_uniq compare (List.concat_map (fun c -> calls [] c.P.Parser.body) clauses) in
  Alcotest.(check (list (pair string int))) "called but undefined" []
    (List.filter
       (fun p -> not (List.mem p defined || List.mem p facts || List.mem p P.Engine.builtins))
       called)

let test_rules_schema_khop () =
  let e = engine_for lineage_schema q1 in
  let holds = holds_in e in
  check_bool "2-hop job-job feasible" true (holds "schemaKHopPath('Job', 'Job', 2)");
  check_bool "4-hop job-job feasible" true (holds "schemaKHopPath('Job', 'Job', 4)");
  check_bool "3-hop job-job infeasible" false (holds "schemaKHopPath('Job', 'Job', 3)");
  check_bool "1-hop job-file feasible" true (holds "schemaKHopPath('Job', 'File', 1)")

let test_rules_query_khop () =
  let e = engine_for lineage_schema q1 in
  let ks =
    List.filter_map
      (fun b ->
        match List.assoc "K" b with Kaskade_prolog.Term.Int k -> Some k | _ -> None)
      (Kaskade_prolog.Engine.all_solutions e "queryKHopPath(q_j1, q_j2, K)")
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "K = 2..10 realizable" [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ] ks

(* ------------------------------------------------------------------ *)
(* Estimator (paper §V-A, Eq. 1-3)                                     *)

let test_erdos_renyi_formula () =
  (* n=4, m=3, k=2: C(4,3) * (3 / C(4,2))^2 = 4 * 0.25 = 1. *)
  Alcotest.(check (float 1e-9)) "eq 1" 1.0 (K.Estimator.erdos_renyi ~n:4 ~m:3 ~k:2);
  Alcotest.(check (float 1e-9)) "degenerate" 0.0 (K.Estimator.erdos_renyi ~n:2 ~m:1 ~k:2);
  Alcotest.(check (float 1e-9)) "no edges" 0.0 (K.Estimator.erdos_renyi ~n:10 ~m:0 ~k:2)

let uniform_graph () =
  (* 4 vertices in a directed cycle: every out-degree exactly 1. *)
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let ids = Array.init 4 (fun _ -> Builder.add_vertex b ~vtype:"V" ()) in
  Array.iteri (fun i v -> ignore (Builder.add_edge b ~src:v ~dst:ids.((i + 1) mod 4) ~etype:"E" ())) ids;
  Graph.freeze b

let test_homogeneous_estimator () =
  let stats = Gstats.compute (uniform_graph ()) in
  (* n * deg^k = 4 * 1^3. *)
  Alcotest.(check (float 1e-9)) "eq 2" 4.0 (K.Estimator.homogeneous stats ~k:3 ~alpha:95.0)

let test_heterogeneous_estimator () =
  let b = Builder.create lineage_schema in
  let j = Array.init 2 (fun _ -> Builder.add_vertex b ~vtype:"Job" ()) in
  let f = Array.init 2 (fun _ -> Builder.add_vertex b ~vtype:"File" ()) in
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:j.(1) ~dst:f.(1) ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:f.(0) ~dst:j.(1) ~etype:"IS_READ_BY" ());
  let g = Graph.freeze b in
  let stats = Gstats.compute g in
  (* deg95(Job)=1, deg95(File)=1: 2*1 + 2*1 = 4. *)
  Alcotest.(check (float 1e-9)) "eq 3" 4.0 (K.Estimator.heterogeneous stats ~k:2 ~alpha:95.0)

let test_typed_chain () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 100; files = 200; seed = 4 }) in
  let stats = Gstats.compute g in
  let est =
    K.Estimator.typed_chain stats (Graph.schema g) ~src_type:"Job" ~dst_type:"Job" ~k:2 ~alpha:100.0
  in
  (* alpha=100 is an upper bound on the number of 2-walks. *)
  let actual =
    Kaskade_graph.Paths.count_k_walks_between g ~k:2
      ~src_type:(Schema.vertex_type_id (Graph.schema g) "Job")
      ~dst_type:(Schema.vertex_type_id (Graph.schema g) "Job")
  in
  check_bool "alpha=100 upper-bounds walks" true (est >= actual);
  Alcotest.(check (float 1e-9)) "no odd-hop job-job paths" 0.0
    (K.Estimator.typed_chain stats (Graph.schema g) ~src_type:"Job" ~dst_type:"Job" ~k:3 ~alpha:95.0)

let test_er_underestimates_powerlaw () =
  (* The paper's observation: the ER estimator underestimates path
     counts on skewed real graphs by orders of magnitude. *)
  let g =
    Kaskade_gen.Powerlaw_gen.(generate { default with vertices = 2_000; edges = 10_000; seed = 7 })
  in
  let actual = Kaskade_graph.Paths.count_k_walks g ~k:2 in
  let er = K.Estimator.erdos_renyi ~n:(Graph.n_vertices g) ~m:(Graph.n_edges g) ~k:2 in
  check_bool "ER well below actual" true (er < actual /. 2.0)

let test_view_size_summarizer () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 100; files = 200; seed = 4 }) in
  let stats = Gstats.compute g in
  let est =
    K.Estimator.view_size stats (Graph.schema g) ~alpha:95.0
      (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ]))
  in
  check_bool "smaller than raw graph" true (est < float_of_int (Graph.n_edges g));
  check_bool "positive" true (est > 0.0)

(* ------------------------------------------------------------------ *)
(* Rewrite (paper §V-C)                                                *)

let conn2 = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 })

let test_rewrite_listing1_to_listing4_shape () =
  match K.Rewrite.rewrite lineage_schema q1 conn2 with
  | Some rw -> begin
    match Kaskade_query.Ast.patterns_of rw.K.Rewrite.rewritten with
    | [ { Kaskade_query.Ast.p_start; p_steps = [ (e, p_end) ] } ] ->
      check_bool "start is Job" true (p_start.Kaskade_query.Ast.n_label = Some "Job");
      check_bool "end is Job" true (p_end.Kaskade_query.Ast.n_label = Some "Job");
      check_bool "connector edge" true (e.Kaskade_query.Ast.e_label = Some "JOB_TO_JOB_2HOP");
      check_bool "halved hops" true (e.Kaskade_query.Ast.e_len = Kaskade_query.Ast.Var_length (1, 5))
    | _ -> Alcotest.fail "expected a single contracted pattern"
  end
  | None -> Alcotest.fail "rewrite refused"

let test_rewrite_refuses_uncovering_k () =
  (* A 4-hop connector covers only multiples of 4 and must be refused
     for the 2..10-hop segment. *)
  let conn4 = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 4 }) in
  check_bool "refused" true (K.Rewrite.rewrite lineage_schema q1 conn4 = None)

let test_rewrite_backward_segment () =
  match K.Rewrite.rewrite lineage_schema q2 conn2 with
  | Some rw -> begin
    match Kaskade_query.Ast.patterns_of rw.K.Rewrite.rewritten with
    | [ { Kaskade_query.Ast.p_steps = [ (e, _) ]; _ } ] ->
      check_bool "stays backward" true (e.Kaskade_query.Ast.e_dir = Kaskade_query.Ast.Bwd);
      check_bool "hops 1..2" true (e.Kaskade_query.Ast.e_len = Kaskade_query.Ast.Var_length (1, 2))
    | _ -> Alcotest.fail "single pattern expected"
  end
  | None -> Alcotest.fail "rewrite refused"

let test_rewrite_preserves_interior_reference () =
  (* If a middle vertex is projected, contraction across it must not
     happen. *)
  let q = K.parse "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, f, b" in
  check_bool "refused when interior used" true (K.Rewrite.rewrite lineage_schema q conn2 = None)

let test_rewrite_homogeneous_odd_hops_refused () =
  let homo = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "LINK", "V") ] in
  let q = K.parse "MATCH (a:V)-[r*1..4]->(b:V) RETURN a, b" in
  let conn = View.Connector (View.K_hop { src_type = "V"; dst_type = "V"; k = 2 }) in
  (* Odd hop counts are feasible on a homogeneous schema; a 2-hop
     connector cannot cover them. *)
  check_bool "refused" true (K.Rewrite.rewrite homo q conn = None)

let test_rewrite_homogeneous_even_range () =
  let homo = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "LINK", "V") ] in
  let q = K.parse "MATCH (a:V)-[r*2..2]->(b:V) RETURN a, b" in
  let conn = View.Connector (View.K_hop { src_type = "V"; dst_type = "V"; k = 2 }) in
  match K.Rewrite.rewrite homo q conn with
  | Some rw -> begin
    match Kaskade_query.Ast.patterns_of rw.K.Rewrite.rewritten with
    | [ { Kaskade_query.Ast.p_steps = [ (e, _) ]; _ } ] ->
      check_bool "single connector hop" true (e.Kaskade_query.Ast.e_len = Kaskade_query.Ast.Single)
    | _ -> Alcotest.fail "pattern shape"
  end
  | None -> Alcotest.fail "refused"

let test_rewrite_summarizer_applicability () =
  let keep = View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ]) in
  (* Q1 only touches Job/File: applicable (query unchanged). *)
  (match K.Rewrite.rewrite prov_schema q1 keep with
  | Some rw ->
    check_string "identity rewrite" (Kaskade_query.Pretty.to_string q1)
      (Kaskade_query.Pretty.to_string rw.K.Rewrite.rewritten)
  | None -> Alcotest.fail "should apply");
  (* A query touching Users is not answerable from the view. *)
  let qu = K.parse "MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j" in
  check_bool "user query refused" true (K.Rewrite.rewrite prov_schema qu keep = None)

let test_rewrite_edge_removal_applicability () =
  let drop = View.Summarizer (View.Edge_removal [ "SUBMITTED" ]) in
  let q_ok = K.parse "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f" in
  check_bool "applies" true (K.Rewrite.rewrite prov_schema q_ok drop <> None);
  let q_bad = K.parse "MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j" in
  check_bool "refused" true (K.Rewrite.rewrite prov_schema q_bad drop = None)

let test_merge_chains () =
  let q = K.parse "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b" in
  let merged = K.Rewrite.merge_chains (Kaskade_query.Ast.patterns_of q) in
  check_int "one chain" 1 (List.length merged);
  match merged with
  | [ { Kaskade_query.Ast.p_steps; _ } ] -> check_int "two steps" 2 (List.length p_steps)
  | _ -> Alcotest.fail "merge shape"

(* ------------------------------------------------------------------ *)
(* Selection (paper §V-B)                                              *)

let prov_graph () = Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 })

let test_selection_picks_2hop () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let sel =
    K.Selection.select stats (Graph.schema g) ~queries:[ q1; q2 ] ~budget_edges:1_000_000
  in
  let chosen = List.map View.name sel.K.Selection.chosen in
  check_bool "2-hop connector chosen" true (List.mem "JOB_TO_JOB_2HOP" chosen)

(* Table IV Q1-Q4 (Q1 on prov only) over small prov, dblp and soc
   graphs at a budget of 10x|E|. prov and dblp keep the 2-hop
   connector plus the type filter; on soc the only edge type runs
   V -> V, so the 1-hop connector would copy the graph and is not
   enumerated. *)
let test_selection_table_iv_picks () =
  let picks g queries =
    let ks = K.make g in
    let sel =
      K.select_views ks ~queries:(List.map K.parse queries) ~budget_edges:(10 * Graph.n_edges g)
    in
    List.map View.name sel.K.Selection.chosen
  in
  let q2_q4 l =
    [ Printf.sprintf "MATCH (s:%s)<-[r*1..4]-(anc:%s) RETURN s, anc" l l;
      Printf.sprintf "MATCH (s:%s)-[r*1..4]->(desc:%s) RETURN s, desc" l l;
      Printf.sprintf
        "SELECT s, n, MAX(r) FROM (MATCH (s:%s)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n" l ]
  in
  let prov =
    Kaskade_gen.Provenance_gen.(
      generate
        { default with jobs = 300; files = 600; tasks_per_job = 6; machines = 100; users = 400; seed = 42 })
  in
  let table_iv_q1 =
    "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH \
     (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) \
     (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1 as A, q_j2 as B) GROUP BY A, B) GROUP \
     BY A.pipelineName"
  in
  Alcotest.(check (list string)) "prov picks" [ "JOB_TO_JOB_2HOP"; "KEEP_V_FILE_JOB" ]
    (picks prov (table_iv_q1 :: q2_q4 "Job"));
  let dblp =
    Kaskade_gen.Dblp_gen.(
      generate { default with authors = 500; pubs = 800; venues = 100; zipf_exponent = 2.1; seed = 7 })
  in
  Alcotest.(check (list string)) "dblp picks" [ "AUTHOR_TO_AUTHOR_2HOP"; "KEEP_V_AUTHOR_PUB" ]
    (picks dblp (q2_q4 "Author"));
  let soc =
    Kaskade_gen.Powerlaw_gen.(generate { vertices = 300; edges = 1200; exponent = 2.4; seed = 11 })
  in
  check_bool "soc picks no 1-hop copy" false (List.mem "V_TO_V_1HOP" (picks soc (q2_q4 "V")))

let test_selection_budget_zero () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let sel = K.Selection.select stats (Graph.schema g) ~queries:[ q1 ] ~budget_edges:0 in
  check_int "nothing chosen" 0 (List.length sel.K.Selection.chosen)

let test_selection_respects_budget () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let sel = K.Selection.select stats (Graph.schema g) ~queries:[ q1; q2 ] ~budget_edges:5_000 in
  check_bool "weight under budget" true (sel.K.Selection.total_weight <= 5_000)

let test_selection_infeasible_k_zero_value () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let sel = K.Selection.select stats (Graph.schema g) ~queries:[ q1 ] ~budget_edges:1_000_000 in
  List.iter
    (fun (r : K.Selection.candidate_report) ->
      match r.K.Selection.view with
      | View.Connector (View.K_hop { k; _ }) when k > 2 ->
        Alcotest.(check (float 1e-9)) "k>2 connectors worthless for Q1" 0.0 r.K.Selection.improvement
      | _ -> ())
    sel.K.Selection.reports

let test_selection_solvers_agree () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let bnb =
    K.Selection.select ~solver:K.Selection.Branch_and_bound stats (Graph.schema g)
      ~queries:[ q1 ] ~budget_edges:100_000
  in
  let dp =
    K.Selection.select ~solver:K.Selection.Dp stats (Graph.schema g) ~queries:[ q1 ]
      ~budget_edges:100_000
  in
  Alcotest.(check (float 1e-9)) "same optimum" bnb.K.Selection.total_value dp.K.Selection.total_value

let test_selection_query_weights () =
  let g = prov_graph () in
  let stats = Gstats.compute g in
  let sel =
    K.Selection.select ~query_weights:[ 10.0 ] stats (Graph.schema g) ~queries:[ q1 ]
      ~budget_edges:1_000_000
  in
  let base = K.Selection.select stats (Graph.schema g) ~queries:[ q1 ] ~budget_edges:1_000_000 in
  let imp sel' =
    List.fold_left (fun acc (r : K.Selection.candidate_report) -> acc +. r.K.Selection.improvement)
      0.0 sel'.K.Selection.reports
  in
  check_bool "weights scale improvement" true (imp sel > (5.0 *. imp base))

(* ------------------------------------------------------------------ *)
(* Facade end-to-end                                                   *)

let test_facade_end_to_end_equivalence () =
  let g = prov_graph () in
  let ks = K.make g in
  let sel = K.select_views ks ~queries:[ q1 ] ~budget_edges:2_000_000 in
  ignore (K.materialize_selected ks sel);
  (* Distinct (A, B) job-pair equivalence raw vs view-based. *)
  let pairs_query =
    K.parse
      "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1 as A, q_j2 as B"
  in
  let to_set (t : Kaskade_exec.Row.table) =
    List.sort_uniq compare
      (List.map
         (fun row ->
           match row with
           | [| Kaskade_exec.Row.V a; Kaskade_exec.Row.V b |] ->
             let name g' v = match Graph.vprop g' v "name" with Some (Value.Str s) -> s | _ -> "?" in
             ignore name;
             (a, b)
           | _ -> (-1, -1))
         t.Kaskade_exec.Row.rows)
  in
  let raw = Kaskade_exec.Executor.table_exn (fst (qok (K.query ~target:K.Base ks pairs_query))) in
  let via, how = krun ks pairs_query in
  let via = Kaskade_exec.Executor.table_exn via in
  (match how with
  | K.Via_view _ -> ()
  | K.Raw -> Alcotest.fail "expected a view-based answer");
  (* Vertex ids differ between graphs; compare by name. *)
  let names_of g' t =
    List.sort_uniq compare
      (List.filter_map
         (fun row ->
           match row with
           | [| Kaskade_exec.Row.V a; Kaskade_exec.Row.V b |] -> begin
             match (Graph.vprop g' a "name", Graph.vprop g' b "name") with
             | Some (Value.Str x), Some (Value.Str y) -> Some (x, y)
             | _ -> None
           end
           | _ -> None)
         t.Kaskade_exec.Row.rows)
  in
  ignore to_set;
  let view_graph =
    match how with
    | K.Via_view name -> begin
      match Catalog.find_by_name (K.catalog ks) name with
      | Some e -> e.Catalog.materialized.Materialize.graph
      | None -> Alcotest.fail "view missing"
    end
    | K.Raw -> g
  in
  Alcotest.(check (list (pair string string)))
    "distinct pairs identical" (names_of g raw) (names_of view_graph via)

let test_facade_run_raw_when_no_views () =
  let g = prov_graph () in
  let ks = K.make g in
  let _, how = krun ks q1 in
  check_bool "raw" true (how = K.Raw)

let test_facade_materialize_idempotent () =
  let g = prov_graph () in
  let ks = K.make g in
  let a = K.materialize ks conn2 in
  let b = K.materialize ks conn2 in
  check_int "same entry" a.Catalog.size_edges b.Catalog.size_edges;
  check_int "one catalog entry" 1 (List.length (Catalog.entries (K.catalog ks)))

let test_facade_q7_q8_pipeline_on_view () =
  let g = prov_graph () in
  let ks = K.make g in
  ignore (K.materialize ks conn2);
  let ctx = K.view_ctx ks "JOB_TO_JOB_2HOP" in
  (match Kaskade_exec.Executor.run_string ctx "CALL algo.labelPropagation(5)" with
  | Kaskade_exec.Executor.Affected _ -> ()
  | _ -> Alcotest.fail "LP failed");
  let t =
    Kaskade_exec.Executor.table_exn
      (Kaskade_exec.Executor.run_string ctx "CALL algo.largestCommunity('Job')")
  in
  check_bool "community found on view" true (Kaskade_exec.Row.n_rows t > 0)

let test_facade_enumerate_via_facade () =
  let g = prov_graph () in
  let ks = K.make g in
  let e = K.enumerate_views ks q1 in
  check_bool "candidates found" true (List.length e.K.Enumerate.candidates >= 5)

let test_facade_run_on_view_unknown () =
  let g = prov_graph () in
  let ks = K.make g in
  check_bool "not found is a typed planning error" true
    (match K.query ~target:(K.View "NOPE") ks q1 with
    | Error (K.Error.Plan _) -> true
    | _ -> false)


(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let pc_state ks q =
  match (K.explain ks q).K.plan_cache with Some s -> s | None -> "disabled"

let pc_counter name = Kaskade_obs.Metrics.(counter_value (counter name))

let test_plan_cache_warms_and_serves_identical_results () =
  let g = prov_graph () in
  let ks = K.make g in
  ignore (K.materialize ks conn2);
  check_bool "cold before any run" true (string_contains (pc_state ks q1) "cold");
  let hits0 = pc_counter "kaskade.plan_cache_hits" in
  let r1, how1 = krun ks q1 in
  check_bool "warm after one run" true (string_contains (pc_state ks q1) "warm");
  let r2, how2 = krun ks q1 in
  check_bool "hit counted" true (pc_counter "kaskade.plan_cache_hits" > hits0);
  check_bool "same routing warm as cold" true (how1 = how2);
  let rows r = (Kaskade_exec.Executor.table_exn r).Kaskade_exec.Row.rows in
  check_bool "identical rows warm as cold" true (rows r1 = rows r2)

let test_plan_cache_invalidated_by_catalog_change () =
  let g = prov_graph () in
  let ks = K.make g in
  ignore (krun ks q2);
  check_bool "warm" true (string_contains (pc_state ks q2) "warm");
  let inv0 = pc_counter "kaskade.plan_cache_invalidations" in
  ignore (K.materialize ks conn2);
  check_bool "cold again after materialize" true (string_contains (pc_state ks q2) "cold");
  check_bool "invalidation counted" true
    (pc_counter "kaskade.plan_cache_invalidations" > inv0);
  (* The replanned run must see the new view, not the cached Raw route. *)
  let _, how = krun ks q1 in
  check_bool "replanned run routes via the new view" true
    (match how with K.Via_view _ -> true | K.Raw -> false)

let test_plan_cache_invalidated_by_update_batch () =
  let g = prov_graph () in
  let ks = K.make g in
  ignore (krun ks q2);
  check_bool "warm" true (string_contains (pc_state ks q2) "warm");
  K.Update.batch
    [ K.Update.Insert_vertex { vtype = "Job"; props = [ ("name", Value.Str "late-job") ] } ]
    ks;
  check_bool "cold after an update batch" true (string_contains (pc_state ks q2) "cold");
  (* A no-op batch (failed delete) leaves the cache warm. *)
  ignore (krun ks q2);
  K.Update.batch [ K.Update.Delete_edge { src = 0; dst = 0; etype = "WRITES_TO" } ] ks;
  check_bool "no-op batch keeps the cache warm" true
    (string_contains (pc_state ks q2) "warm")

let test_plan_cache_entries_gauge () =
  (* The entries gauge tracks the population, not just traffic: after a
     warm run it must report the cached plans. It regressed to a
     constant 0 once — a sibling facade's (empty) invalidation zeroed
     the process-global gauge on every miss — so pin the behavior with
     two instances live at once. *)
  let gauge_v name = Kaskade_obs.Metrics.(gauge_value (gauge name)) in
  let g = prov_graph () in
  let ks = K.make g in
  let other = K.make g in
  ignore (krun ks q1);
  check_bool "entries gauge > 0 after a warm run" true
    (gauge_v "kaskade.plan_cache_entries" > 0.0);
  (* A run on the sibling (its own cache cold, nothing to invalidate)
     must not clobber the gauge back to zero. *)
  ignore (krun other q2);
  check_bool "sibling's cold run keeps the gauge positive" true
    (gauge_v "kaskade.plan_cache_entries" > 0.0)

let test_plan_cache_disabled () =
  let g = prov_graph () in
  let ks = K.make ~config:{ K.Config.default with plan_cache = false } g in
  check_string "explain reports no cache" "disabled" (pc_state ks q2);
  let hits0 = pc_counter "kaskade.plan_cache_hits" in
  ignore (krun ks q2);
  ignore (krun ks q2);
  check_bool "no hits when disabled" true (pc_counter "kaskade.plan_cache_hits" = hits0);
  check_string "still no cache after runs" "disabled" (pc_state ks q2)

(* ------------------------------------------------------------------ *)
(* Property: rewrite equivalence on random graphs                      *)

let summarize_to_lineage g =
  (Materialize.materialize g (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ])))
    .Materialize.graph

let distinct_name_pairs g (t : Kaskade_exec.Row.table) =
  List.sort_uniq compare
    (List.filter_map
       (fun row ->
         match row with
         | [| Kaskade_exec.Row.V a; Kaskade_exec.Row.V b |] -> begin
           match (Graph.vprop g a "name", Graph.vprop g b "name") with
           | Some (Value.Str x), Some (Value.Str y) -> Some (x, y)
           | _ -> None
         end
         | _ -> None)
       t.Kaskade_exec.Row.rows)

let pairs_of ctx g src =
  distinct_name_pairs g (Kaskade_exec.Executor.table_exn (Kaskade_exec.Executor.run_string ctx src))

(* For random lineage graphs and several query shapes, the distinct
   endpoint pairs of the raw query equal those of its rewriting over a
   freshly materialized 2-hop connector. *)
let prop_rewrite_equivalent =
  let shapes =
    [ "MATCH (a:Job)-[:WRITES_TO]->(f1:File) (f1:File)-[r*0..6]->(f2:File) (f2:File)-[:IS_READ_BY]->(b:Job) RETURN a, b";
      "MATCH (a:Job)<-[r*1..4]-(b:Job) RETURN a, b";
      "MATCH (a:Job)-[r*2..6]->(b:Job) RETURN a, b" ]
  in
  QCheck.Test.make ~name:"connector rewrite preserves distinct pairs" ~count:25
    QCheck.(triple (8 -- 40) (0 -- 500) (0 -- 2))
    (fun (jobs, seed, shape_idx) ->
      let g =
        summarize_to_lineage
          Kaskade_gen.Provenance_gen.(
            generate { default with jobs; files = 2 * jobs; seed = seed + 3 })
      in
      let schema = Graph.schema g in
      let q = K.parse (List.nth shapes shape_idx) in
      match K.Rewrite.rewrite schema q conn2 with
      | None -> QCheck.Test.fail_report "rewrite refused"
      | Some rw ->
        let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
        let raw_ctx = Kaskade_exec.Executor.create g in
        let conn_ctx = Kaskade_exec.Executor.create view.Materialize.graph in
        let raw_pairs = pairs_of raw_ctx g (Kaskade_query.Pretty.to_string q) in
        let conn_pairs =
          pairs_of conn_ctx view.Materialize.graph
            (Kaskade_query.Pretty.to_string rw.K.Rewrite.rewritten)
        in
        raw_pairs = conn_pairs)

(* The all-trails executor agrees with distinct-endpoints on pair
   *sets* for the workload's lo<=1 ranges (tiny graphs only). *)
let prop_modes_agree =
  QCheck.Test.make ~name:"trail and distinct modes agree on endpoint sets" ~count:15
    QCheck.(pair (4 -- 10) (0 -- 200))
    (fun (jobs, seed) ->
      let g =
        summarize_to_lineage
          Kaskade_gen.Provenance_gen.(
            generate { default with jobs; files = jobs; writes_per_job = 2; reads_per_job = 2; seed })
      in
      let src = "MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a, b" in
      let d = Kaskade_exec.Executor.create g in
      let t = Kaskade_exec.Executor.create ~mode:Kaskade_exec.Executor.All_trails g in
      pairs_of d g src = pairs_of t g src)

(* A fixed facade workload on prov (400 jobs, 800 files, seed 9) with
   views chosen at a budget of 10x the edge count. Pins the routing
   each query takes and its row count, and checks that the Auto answer,
   rendered row by row in base-graph terms (view vertex ids mapped back
   through [new_of_old]) and sorted, is byte-identical to
   [~target:Base]. *)
let test_facade_workload_routing_pinned () =
  let module Row = Kaskade_exec.Row in
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 400; files = 800; seed = 9 }) in
  let ks = K.make g in
  let workload =
    [ ("MATCH (s:Job)-[r*1..4]->(desc:Job) RETURN s, desc", "KEEP_V_FILE_JOB", 1909);
      ("MATCH (s:Job)<-[r*1..4]-(anc:Job) RETURN s, anc", "KEEP_V_FILE_JOB", 1909);
      ( "SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n",
        "raw",
        9040 ) ]
  in
  let queries = List.map (fun (src, _, _) -> K.parse src) workload in
  let sel = K.select_views ks ~queries ~budget_edges:(10 * Graph.n_edges g) in
  ignore (K.materialize_selected ks sel);
  let rendered how = function
    | Kaskade_exec.Executor.Affected n -> Printf.sprintf "affected %d\n" n
    | Kaskade_exec.Executor.Table t ->
      let base_of =
        match how with
        | K.Raw -> Fun.id
        | K.Via_view name ->
          let n2o =
            match Catalog.find_by_name (K.catalog ks) name with
            | Some e -> e.Catalog.materialized.Materialize.new_of_old
            | None -> Alcotest.failf "view %s not in the catalog" name
          in
          let inv = Array.make (Array.length n2o) (-1) in
          Array.iteri (fun o n -> if n >= 0 then inv.(n) <- o) n2o;
          fun v -> inv.(v)
      in
      let value = function
        | Row.V v -> Row.rval_to_string g (Row.V (base_of v))
        | Row.E _ when how <> K.Raw -> Alcotest.fail "view edge ids have no base-graph meaning"
        | v -> Row.rval_to_string g v
      in
      String.concat "\t" (Array.to_list t.Row.cols)
      ^ "\n"
      ^ String.concat "\n"
          (List.sort compare
             (List.map (fun r -> String.concat "\t" (Array.to_list (Array.map value r))) t.Row.rows))
  in
  List.iter2
    (fun (src, via, rows) q ->
      let auto, how = krun ks q in
      let base, _ = qok (K.query ~target:K.Base ks q) in
      check_string (src ^ ": routing") via
        (match how with K.Raw -> "raw" | K.Via_view v -> v);
      let n_rows = function
        | Kaskade_exec.Executor.Table t -> Row.n_rows t
        | Kaskade_exec.Executor.Affected n -> n
      in
      check_int (src ^ ": rows") rows (n_rows auto);
      check_string (src ^ ": Auto rows = Base rows") (rendered K.Raw base) (rendered how auto))
    workload queries

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_rewrite_equivalent; prop_modes_agree ]

let () =
  Alcotest.run "kaskade_core"
    [
      ( "facts",
        [
          Alcotest.test_case "listing 1 facts" `Quick test_query_facts_listing1;
          Alcotest.test_case "returned vars" `Quick test_query_facts_returned;
          Alcotest.test_case "schema facts" `Quick test_schema_facts;
          Alcotest.test_case "homogeneous typing" `Quick test_homogeneous_untyped_vars_typed;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "paper §IV-B example" `Quick test_enumeration_matches_paper_example;
          Alcotest.test_case "bridge variables" `Quick test_enumeration_bridges;
          Alcotest.test_case "summarizer candidate" `Quick test_enumeration_summarizer;
          Alcotest.test_case "no trivial summarizer" `Quick test_enumeration_no_summarizer_when_all_types_used;
          Alcotest.test_case "Q2 even hops" `Quick test_enumeration_q2_even_hops_only;
          Alcotest.test_case "constraint pruning" `Quick test_enumeration_constraint_pruning;
          Alcotest.test_case "unconstrained space" `Quick test_enumeration_unconstrained_space;
          Alcotest.test_case "deterministic" `Quick test_enumeration_deterministic;
          Alcotest.test_case "homogeneous" `Quick test_enumeration_homogeneous;
          Alcotest.test_case "pinned on Table IV and the ablation" `Quick test_enumeration_pinned;
        ] );
      ( "rules",
        [
          Alcotest.test_case "schemaKHopPath parity" `Quick test_rules_schema_khop;
          Alcotest.test_case "queryKHopPath range" `Quick test_rules_query_khop;
          Alcotest.test_case "member/2" `Quick test_rules_member;
          Alcotest.test_case "closed over the enumeration goals" `Quick test_rules_closed;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "Erdos-Renyi (Eq. 1)" `Quick test_erdos_renyi_formula;
          Alcotest.test_case "homogeneous (Eq. 2)" `Quick test_homogeneous_estimator;
          Alcotest.test_case "heterogeneous (Eq. 3)" `Quick test_heterogeneous_estimator;
          Alcotest.test_case "typed chain bound" `Quick test_typed_chain;
          Alcotest.test_case "ER underestimates power law" `Quick test_er_underestimates_powerlaw;
          Alcotest.test_case "summarizer size" `Quick test_view_size_summarizer;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "Listing 1 -> Listing 4" `Quick test_rewrite_listing1_to_listing4_shape;
          Alcotest.test_case "uncovering k refused" `Quick test_rewrite_refuses_uncovering_k;
          Alcotest.test_case "backward segment" `Quick test_rewrite_backward_segment;
          Alcotest.test_case "interior reference blocks" `Quick test_rewrite_preserves_interior_reference;
          Alcotest.test_case "homogeneous odd hops refused" `Quick test_rewrite_homogeneous_odd_hops_refused;
          Alcotest.test_case "homogeneous even range" `Quick test_rewrite_homogeneous_even_range;
          Alcotest.test_case "summarizer applicability" `Quick test_rewrite_summarizer_applicability;
          Alcotest.test_case "edge removal applicability" `Quick test_rewrite_edge_removal_applicability;
          Alcotest.test_case "merge chains" `Quick test_merge_chains;
        ] );
      ( "selection",
        [
          Alcotest.test_case "picks 2-hop" `Quick test_selection_picks_2hop;
          Alcotest.test_case "budget zero" `Quick test_selection_budget_zero;
          Alcotest.test_case "respects budget" `Quick test_selection_respects_budget;
          Alcotest.test_case "infeasible k worthless" `Quick test_selection_infeasible_k_zero_value;
          Alcotest.test_case "solvers agree" `Quick test_selection_solvers_agree;
          Alcotest.test_case "query weights" `Quick test_selection_query_weights;
          Alcotest.test_case "Table IV picks on fixture graphs" `Quick test_selection_table_iv_picks;
        ] );
      ("properties", qcheck_cases);
      ( "facade",
        [
          Alcotest.test_case "end-to-end equivalence" `Quick test_facade_end_to_end_equivalence;
          Alcotest.test_case "raw without views" `Quick test_facade_run_raw_when_no_views;
          Alcotest.test_case "materialize idempotent" `Quick test_facade_materialize_idempotent;
          Alcotest.test_case "Q7/Q8 pipeline on view" `Quick test_facade_q7_q8_pipeline_on_view;
          Alcotest.test_case "enumerate via facade" `Quick test_facade_enumerate_via_facade;
          Alcotest.test_case "run_on_view unknown" `Quick test_facade_run_on_view_unknown;
          Alcotest.test_case "workload routing pinned" `Quick test_facade_workload_routing_pinned;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "warms and serves identical results" `Quick
            test_plan_cache_warms_and_serves_identical_results;
          Alcotest.test_case "invalidated by catalog change" `Quick
            test_plan_cache_invalidated_by_catalog_change;
          Alcotest.test_case "invalidated by update batch" `Quick
            test_plan_cache_invalidated_by_update_batch;
          Alcotest.test_case "entries gauge tracks population" `Quick
            test_plan_cache_entries_gauge;
          Alcotest.test_case "disabled" `Quick test_plan_cache_disabled;
        ] );
    ]
