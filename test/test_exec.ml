open Kaskade_graph
open Kaskade_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lineage_schema = Kaskade_gen.Provenance_gen.schema

(* j0 writes f0, f1; f0 read by j1; f1 read by j1 and j2; j2 writes f2;
   user u0 submitted j0, j1; u1 submitted j2. *)
let small_lineage () =
  let b = Builder.create lineage_schema in
  let j =
    Array.init 3 (fun i ->
        Builder.add_vertex b ~vtype:"Job"
          ~props:
            [ ("name", Value.Str (Printf.sprintf "j%d" i));
              ("CPU", Value.Float (float_of_int (10 * (i + 1))));
              ("pipelineName", Value.Str (if i < 2 then "alpha" else "beta")) ]
          ())
  in
  let f =
    Array.init 3 (fun i ->
        Builder.add_vertex b ~vtype:"File"
          ~props:[ ("name", Value.Str (Printf.sprintf "f%d" i)) ] ())
  in
  let u = Array.init 2 (fun i ->
      Builder.add_vertex b ~vtype:"User" ~props:[ ("name", Value.Str (Printf.sprintf "u%d" i)) ] ())
  in
  let ts = ref 0 in
  let edge s d t =
    incr ts;
    ignore (Builder.add_edge b ~src:s ~dst:d ~etype:t ~props:[ ("timestamp", Value.Int !ts) ] ())
  in
  edge j.(0) f.(0) "WRITES_TO";
  edge j.(0) f.(1) "WRITES_TO";
  edge f.(0) j.(1) "IS_READ_BY";
  edge f.(1) j.(1) "IS_READ_BY";
  edge f.(1) j.(2) "IS_READ_BY";
  edge j.(2) f.(2) "WRITES_TO";
  edge u.(0) j.(0) "SUBMITTED";
  edge u.(0) j.(1) "SUBMITTED";
  edge u.(1) j.(2) "SUBMITTED";
  (Graph.freeze b, j, f, u)


(* First MATCH pattern of a query (planner tests). *)
module Ast_patterns = struct
  let first q = match Kaskade_query.Ast.patterns_of q with p :: _ -> Some p | [] -> None
end

let table ctx src = Executor.table_exn (Executor.run_string ctx src)

let names g t col =
  List.map
    (fun row ->
      match row.(Row.col_index t col) with
      | Row.V v -> begin
        match Graph.vprop g v "name" with Some (Value.Str s) -> s | _ -> "?"
      end
      | other -> Row.rval_to_string g other)
    t.Row.rows
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* MATCH basics                                                        *)

let test_scan_by_label () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) RETURN j" in
  Alcotest.(check (list string)) "all jobs" [ "j0"; "j1"; "j2" ] (names g t "j")

let test_scan_all () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_int "all vertices" (Graph.n_vertices g) (Row.n_rows (table ctx "MATCH (n) RETURN n"))

let test_single_edge_expand () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  check_int "three writes" 3 (Row.n_rows t)

let test_backward_edge () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN f, j" in
  check_int "same three writes" 3 (Row.n_rows t)

let test_two_hop_chain () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b" in
  (* j0-f0-j1, j0-f1-j1, j0-f1-j2 *)
  check_int "three 2-hop paths" 3 (Row.n_rows t)

let test_shared_var_join () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, f, b"
  in
  check_int "join on f" 3 (Row.n_rows t)

let test_unknown_label_rejected () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "semantic error" true
    (try
       ignore (table ctx "MATCH (x:Ghost) RETURN x");
       false
     with Kaskade_query.Analyze.Semantic_error _ -> true)

let test_edge_var_binding () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[e:WRITES_TO]->(f:File) WHERE e.timestamp > 1 RETURN j, f" in
  check_int "filter on edge prop" 2 (Row.n_rows t)

(* ------------------------------------------------------------------ *)
(* Variable-length paths                                               *)

let test_var_length_distinct () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)-[r*1..4]->(n:Job) RETURN f, n" in
  (* Distinct (file, job) pairs within 4 hops: f0->{j1,j2(f0-j1? no...)}:
     f0->j1 (1 hop), then j1 has no out-edges beyond... j1 writes
     nothing, so from f0: {j1}. f1->{j1, j2}, plus f1->j2->... j2
     writes f2, f2 read by nobody; f2->{} ; also f0->j1 only.
     Pairs: (f0,j1), (f1,j1), (f1,j2). Wait f0: 1-hop j1; j1 no
     out-edges. And (f1,j2)->f2: f2 is File not Job. Total 3. *)
  check_int "distinct pairs" 3 (Row.n_rows t)

let test_var_length_zero_lo () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)-[r*0..2]->(x:File) RETURN f, x" in
  (* lo=0 pairs every file with itself (3) plus 2-hop file-file pairs:
     f0->j1->(nothing), f1->j1/j2->...: f1-j2-f2. So 3 + 1 = 4. *)
  check_int "self plus 2-hop" 4 (Row.n_rows t)

let test_var_length_trails_multiplicity () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create ~mode:Executor.All_trails g in
  let t = table ctx "MATCH (a:Job)-[r*2..2]->(b:Job) RETURN a, b" in
  (* Trails of length exactly 2 between jobs: j0-f0-j1, j0-f1-j1,
     j0-f1-j2 — multiplicity preserved. *)
  check_int "three trails" 3 (Row.n_rows t)

let test_var_length_modes_agree_on_sets () =
  let g, _, _, _ = small_lineage () in
  let distinct = Executor.create g in
  let trails = Executor.create ~mode:Executor.All_trails g in
  let set_of ctx =
    let t = table ctx "MATCH (a:Job)-[r*1..3]->(x) RETURN a, x" in
    List.sort_uniq compare
      (List.map (fun row -> (row.(0), row.(1))) t.Row.rows)
  in
  check_bool "same endpoint sets" true (set_of distinct = set_of trails)

let test_var_length_cycle_self_pair () =
  (* a -> b -> a cycle: distinct-endpoint expansion must report the
     source as reachable at hop 2 (connector-rewrite soundness). *)
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let v0 = Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str "v0") ] () in
  let v1 = Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str "v1") ] () in
  ignore (Builder.add_edge b ~src:v0 ~dst:v1 ~etype:"E" ());
  ignore (Builder.add_edge b ~src:v1 ~dst:v0 ~etype:"E" ());
  let g = Graph.freeze b in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a)-[r*1..2]->(b) RETURN a, b" in
  check_int "both self-pairs found" 4 (Row.n_rows t)

let test_var_length_lo2_walk_semantics () =
  (* Line 0->1->2: with *2..2 only vertex 2 qualifies; vertex 1 is at
     distance 1 and has no length-2 walk. *)
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let ids = Array.init 3 (fun i -> Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str (Printf.sprintf "v%d" i)) ] ()) in
  ignore (Builder.add_edge b ~src:ids.(0) ~dst:ids.(1) ~etype:"E" ());
  ignore (Builder.add_edge b ~src:ids.(1) ~dst:ids.(2) ~etype:"E" ());
  let g = Graph.freeze b in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a)-[r*2..2]->(b) RETURN a, b" in
  check_int "exactly one length-2 pair" 1 (Row.n_rows t)

let test_var_length_etype_filter () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[r:WRITES_TO*1..4]->(x) RETURN j, x" in
  (* WRITES_TO-only paths have length exactly 1 (File has no
     WRITES_TO out-edges). *)
  check_int "typed var-length" 3 (Row.n_rows t)

(* Random cyclic single-type graph shared by the reference properties. *)
let random_graph n m seed =
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let rng = Kaskade_util.Prng.create seed in
  let ids = Array.init n (fun _ -> Builder.add_vertex b ~vtype:"V" ()) in
  for _ = 1 to m do
    let s = Kaskade_util.Prng.choose rng ids and d = Kaskade_util.Prng.choose rng ids in
    ignore (Builder.add_edge b ~src:s ~dst:d ~etype:"E" ())
  done;
  Graph.freeze b

let pairs_of_table t =
  List.sort compare
    (List.filter_map
       (fun row ->
         match (row.(0), row.(1)) with Row.V a, Row.V b -> Some (a, b) | _ -> None)
       t.Row.rows)

(* The scratch-buffer var-length rewrite vs a naive Hashtbl reference:
   the qualifying endpoint set is the union, over walk lengths l in
   [max(1,lo) .. hi], of the exact-l level sets (which also covers the
   lo<=1 reachability branch and cyclic self-pairs), plus (src, src)
   when lo = 0. *)
let prop_var_length_matches_reference =
  QCheck.Test.make ~name:"var-length endpoints = naive reference" ~count:40
    QCheck.(quad (2 -- 18) (0 -- 60) (0 -- 2) (0 -- 3))
    (fun (n, m, lo, extra) ->
      let hi = Stdlib.max 1 (lo + extra) in
      let g = random_graph n m (n + (m * 131) + (lo * 7) + extra) in
      let ctx = Executor.create g in
      let t = table ctx (Printf.sprintf "MATCH (a)-[r*%d..%d]->(b) RETURN a, b" lo hi) in
      let expected = ref [] in
      for src = 0 to n - 1 do
        let qualifies = Hashtbl.create 16 in
        if lo = 0 then Hashtbl.replace qualifies src ();
        let cur = ref (Hashtbl.create 16) in
        Hashtbl.replace !cur src ();
        for l = 1 to hi do
          let next = Hashtbl.create 16 in
          Hashtbl.iter
            (fun v () ->
              Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> Hashtbl.replace next dst ()))
            !cur;
          if l >= Stdlib.max 1 lo then
            Hashtbl.iter (fun v () -> Hashtbl.replace qualifies v ()) next;
          cur := next
        done;
        Hashtbl.iter (fun v () -> expected := (src, v) :: !expected) qualifies
      done;
      pairs_of_table t = List.sort compare !expected)

(* All-trails mode vs a naive edge-distinct DFS, multiplicity
   included. Kept tiny: trail counts grow combinatorially. *)
let prop_var_length_trails_matches_reference =
  QCheck.Test.make ~name:"var-length trails = naive DFS reference" ~count:40
    QCheck.(triple (2 -- 8) (0 -- 14) (1 -- 3))
    (fun (n, m, hi) ->
      let lo = 1 in
      let g = random_graph n m (n + (m * 257) + hi) in
      let ctx = Executor.create ~mode:Executor.All_trails g in
      let t = table ctx (Printf.sprintf "MATCH (a)-[r*%d..%d]->(b) RETURN a, b" lo hi) in
      let expected = ref [] in
      for src = 0 to n - 1 do
        let used = Hashtbl.create 16 in
        let rec dfs v len =
          if len >= lo then expected := (src, v) :: !expected;
          if len < hi then
            Graph.iter_out g v (fun ~dst ~etype:_ ~eid ->
                if not (Hashtbl.mem used eid) then begin
                  Hashtbl.replace used eid ();
                  dfs dst (len + 1);
                  Hashtbl.remove used eid
                end)
        in
        Graph.iter_out g src (fun ~dst ~etype:_ ~eid ->
            Hashtbl.replace used eid ();
            dfs dst 1;
            Hashtbl.remove used eid)
      done;
      pairs_of_table t = List.sort compare !expected)

(* ------------------------------------------------------------------ *)
(* WHERE / projections / aggregation                                   *)

let test_where_on_vertex_prop () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.CPU > 15 RETURN j" in
  Alcotest.(check (list string)) "filtered" [ "j1"; "j2" ] (names g t "j")

let test_projection_props () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) RETURN j.name AS n, j.CPU AS c" in
  check_int "rows" 3 (Row.n_rows t);
  Alcotest.(check (array string)) "cols" [| "n"; "c" |] t.Row.cols

let test_count_star () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT COUNT(*) FROM (MATCH (a)-[r]->(b) RETURN a)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int n) |] ] -> check_int "edge count" (Graph.n_edges g) n
  | _ -> Alcotest.fail "bad count"

let test_group_by_aggregates () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j.pipelineName, SUM(j.CPU), COUNT(*), MIN(j.CPU), MAX(j.CPU) FROM (MATCH (j:Job) RETURN j) GROUP BY j.pipelineName"
  in
  check_int "two pipelines" 2 (Row.n_rows t);
  let by_name =
    List.map
      (fun row ->
        match (row.(0), row.(1), row.(2), row.(3), row.(4)) with
        | Row.Prim (Value.Str p), Row.Prim s, Row.Prim (Value.Int c), Row.Prim mn, Row.Prim mx ->
          (p, (s, c, mn, mx))
        | _ -> Alcotest.fail "row shape")
      t.Row.rows
  in
  let s, c, mn, mx = List.assoc "alpha" by_name in
  check_bool "sum alpha" true (Value.equal s (Value.Float 30.0));
  check_int "count alpha" 2 c;
  check_bool "min alpha" true (Value.equal mn (Value.Float 10.0));
  check_bool "max alpha" true (Value.equal mx (Value.Float 20.0))

let test_avg () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT AVG(j.CPU) FROM (MATCH (j:Job) RETURN j)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float a) |] ] -> Alcotest.(check (float 1e-9)) "avg" 20.0 a
  | _ -> Alcotest.fail "bad avg"

let test_nested_select () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT AVG(total) FROM (SELECT u, COUNT(*) AS total FROM (MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j) GROUP BY u)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float a) |] ] -> Alcotest.(check (float 1e-9)) "avg submissions" 1.5 a
  | _ -> Alcotest.fail "bad nested"

let test_select_where () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j FROM (MATCH (j:Job) RETURN j) WHERE j.CPU >= 20"
  in
  check_int "filtered outer" 2 (Row.n_rows t)

let test_group_by_vertex () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT a, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f) GROUP BY a"
  in
  check_int "two writers" 2 (Row.n_rows t)

let test_listing1_full () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1 as A, q_j2 as B) GROUP BY A, B) GROUP BY A.pipelineName"
  in
  (* Only j0 and j2 write; j2's file is read by nobody, so only j0
     (pipeline alpha) produces rows. *)
  check_int "one pipeline row" 1 (Row.n_rows t)


let test_order_by_limit () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT j.name AS n, j.CPU AS c FROM (MATCH (j:Job) RETURN j) ORDER BY c DESC LIMIT 2" in
  check_int "limited" 2 (Row.n_rows t);
  (match t.Row.rows with
  | [ first; second ] ->
    check_bool "descending" true
      (Row.rval_compare first.(1) second.(1) > 0)
  | _ -> Alcotest.fail "rows");
  let asc = table ctx "SELECT j.name AS n FROM (MATCH (j:Job) RETURN j) ORDER BY j.name" in
  (match asc.Row.rows with
  | [ a; _; c ] ->
    check_bool "ascending names" true (Row.rval_compare a.(0) c.(0) < 0)
  | _ -> Alcotest.fail "rows")

let test_order_by_aggregate_alias () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j.pipelineName AS p, SUM(j.CPU) AS total FROM (MATCH (j:Job) RETURN j) GROUP BY j.pipelineName ORDER BY total DESC LIMIT 1"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Str p); _ |] ] -> Alcotest.(check string) "top pipeline" "alpha" p
  | _ -> Alcotest.fail "shape"


let test_index_probe_scan () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Equality on the start variable: the executor probes the on-demand
     index instead of scanning; results identical to the scan path. *)
  let t = table ctx "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'j0' RETURN j, f" in
  check_int "j0 writes two files" 2 (Row.n_rows t);
  let t2 = table ctx "MATCH (j:Job) WHERE j.name = 'nope' RETURN j" in
  check_int "no match" 0 (Row.n_rows t2)

let prop_index_probe_equivalent =
  QCheck.Test.make ~name:"index probe = scan results" ~count:20
    QCheck.(pair (10 -- 60) (0 -- 300))
    (fun (jobs, seed) ->
      let g = Kaskade_gen.Provenance_gen.(generate { default with jobs; files = jobs; seed }) in
      let ctx = Executor.create g in
      let rng = Kaskade_util.Prng.create (seed + 1) in
      let target = Printf.sprintf "job_%d" (Kaskade_util.Prng.int rng jobs) in
      let probed =
        table ctx
          (Printf.sprintf "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = '%s' RETURN j, f" target)
      in
      (* Force the scan path by filtering on a non-start variable. *)
      let scanned =
        table ctx
          (Printf.sprintf
             "MATCH (f:File)<-[:WRITES_TO]-(j:Job) WHERE j.name = '%s' RETURN j, f" target)
      in
      (* Both queries RETURN j, f — same column order. *)
      List.sort_uniq compare probed.Row.rows = List.sort_uniq compare scanned.Row.rows)


let test_select_distinct () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let dup = table ctx "SELECT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j)" in
  check_int "with duplicates" 3 (Row.n_rows dup);
  let t = table ctx "SELECT DISTINCT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j)" in
  check_int "distinct pipelines" 2 (Row.n_rows t);
  (* DISTINCT composes with ORDER BY / LIMIT. *)
  let t2 =
    table ctx
      "SELECT DISTINCT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j) ORDER BY p DESC LIMIT 1"
  in
  match t2.Row.rows with
  | [ [| Row.Prim (Value.Str p) |] ] -> Alcotest.(check string) "beta first desc" "beta" p
  | _ -> Alcotest.fail "shape"

(* ------------------------------------------------------------------ *)
(* SELECT operators against a member-list oracle                       *)

(* The reference semantics of the SELECT stages, written the slow and
   obvious way: names are looked up per row, grouping keeps every
   group's member rows in a [Hashtbl] keyed by the key list, each
   aggregate re-walks its group's members, and ORDER BY re-evaluates
   both keys on every comparison. The executor must return the same
   rows in the same order. *)
module Oracle = struct
  module Ast = Kaskade_query.Ast

  let null = Row.Prim Value.Null
  let truthy = function Row.Prim v -> Value.is_truthy v | Row.V _ | Row.E _ -> true

  let arith op va vb =
    let prim f =
      match (va, vb) with
      | Row.Prim x, Row.Prim y -> Row.Prim (f x y)
      | _ -> invalid_arg "arithmetic on a graph entity"
    in
    match op with
    | Ast.Add -> prim Value.add
    | Ast.Sub -> prim Value.sub
    | Ast.Mul -> prim Value.mul
    | Ast.Div -> prim Value.div
    | Ast.Eq -> Row.Prim (Value.Bool (Row.rval_equal va vb))
    | Ast.Ne -> Row.Prim (Value.Bool (not (Row.rval_equal va vb)))
    | Ast.Lt -> Row.Prim (Value.Bool (Row.rval_compare va vb < 0))
    | Ast.Le -> Row.Prim (Value.Bool (Row.rval_compare va vb <= 0))
    | Ast.Gt -> Row.Prim (Value.Bool (Row.rval_compare va vb > 0))
    | Ast.Ge -> Row.Prim (Value.Bool (Row.rval_compare va vb >= 0))
    | Ast.And -> Row.Prim (Value.Bool (truthy va && truthy vb))
    | Ast.Or -> Row.Prim (Value.Bool (truthy va || truthy vb))

  let neg = function
    | Row.Prim (Value.Int n) -> Row.Prim (Value.Int (-n))
    | Row.Prim (Value.Float f) -> Row.Prim (Value.Float (-.f))
    | _ -> null

  let rec eval g env (e : Ast.expr) =
    match e with
    | Ast.Var v -> env v
    | Ast.Prop (v, p) -> begin
      match env v with
      | Row.V vid -> Row.Prim (Graph.vprop_or_null g vid p)
      | Row.E eid -> Row.Prim (Graph.eprop_or_null g eid p)
      | Row.Prim _ -> null
    end
    | Ast.Lit v -> Row.Prim v
    | Ast.Unop (Ast.Neg, e) -> neg (eval g env e)
    | Ast.Unop (Ast.Not, e) -> begin
      match eval g env e with
      | Row.Prim v -> Row.Prim (Value.Bool (not (Value.is_truthy v)))
      | _ -> Row.Prim (Value.Bool false)
    end
    | Ast.Binop (op, a, b) ->
      let va = eval g env a in
      arith op va (eval g env b)
    | Ast.Agg _ | Ast.Count_star -> invalid_arg "aggregate in a non-aggregating position"

  let rec eval_agg g rows env_of_row (e : Ast.expr) =
    match e with
    | Ast.Count_star -> Row.Prim (Value.Int (List.length rows))
    | Ast.Agg (kind, inner) -> begin
      let values =
        List.filter_map
          (fun row ->
            match eval g (env_of_row row) inner with Row.Prim Value.Null -> None | v -> Some v)
          rows
      in
      let prim = function Row.Prim p -> p | _ -> invalid_arg "aggregate over a graph entity" in
      match (kind, values) with
      | Ast.Count, _ -> Row.Prim (Value.Int (List.length values))
      | Ast.Sum, _ ->
        Row.Prim (List.fold_left (fun acc v -> Value.add acc (prim v)) (Value.Int 0) values)
      | (Ast.Avg | Ast.Min | Ast.Max), [] -> null
      | Ast.Avg, _ ->
        let total =
          List.fold_left
            (fun acc v -> match Value.to_float (prim v) with Some f -> acc +. f | None -> acc)
            0.0 values
        in
        Row.Prim (Value.Float (total /. float_of_int (List.length values)))
      | Ast.Min, first :: rest ->
        List.fold_left (fun acc v -> if Row.rval_compare v acc < 0 then v else acc) first rest
      | Ast.Max, first :: rest ->
        List.fold_left (fun acc v -> if Row.rval_compare v acc > 0 then v else acc) first rest
    end
    | Ast.Binop (op, a, b) when Ast.has_aggregate e -> begin
      let va = eval_agg g rows env_of_row a in
      let vb = eval_agg g rows env_of_row b in
      match op with
      | Ast.And | Ast.Or -> invalid_arg "boolean combination of aggregates"
      | _ -> arith op va vb
    end
    | Ast.Unop (Ast.Neg, inner) when Ast.has_aggregate e -> neg (eval_agg g rows env_of_row inner)
    | _ -> begin match rows with [] -> null | row :: _ -> eval g (env_of_row row) e end

  let env (t : Row.table) (row : Row.rval array) name =
    match Row.col_index t name with i -> row.(i) | exception Not_found -> null

  let select g (sb : Ast.select_block) (source : Row.table) : Row.table =
    let rows =
      match sb.s_where with
      | None -> source.rows
      | Some c -> List.filter (fun row -> truthy (eval g (env source row) c)) source.rows
    in
    let cols = Array.of_list (List.mapi Ast.item_name sb.items) in
    let any_agg = List.exists (fun (it : Ast.select_item) -> Ast.has_aggregate it.item_expr) sb.items in
    let rows =
      if sb.group_by = [] && not any_agg then
        List.map
          (fun row ->
            Array.of_list (List.map (fun (it : Ast.select_item) -> eval g (env source row) it.item_expr) sb.items))
          rows
      else begin
        let groups = Hashtbl.create 64 in
        let order = ref [] in
        if sb.group_by = [] then begin
          order := [ [] ];
          Hashtbl.add groups [] []
        end;
        List.iter
          (fun row ->
            let key = List.map (fun e -> eval g (env source row) e) sb.group_by in
            match Hashtbl.find_opt groups key with
            | Some members -> Hashtbl.replace groups key (row :: members)
            | None ->
              order := key :: !order;
              Hashtbl.add groups key [ row ])
          rows;
        List.rev_map
          (fun key ->
            let members = List.rev (Hashtbl.find groups key) in
            Array.of_list
              (List.map (fun (it : Ast.select_item) -> eval_agg g members (env source) it.item_expr) sb.items))
          !order
      end
    in
    let rows =
      if not sb.distinct then rows
      else begin
        let seen = Hashtbl.create 64 in
        List.filter
          (fun row ->
            let key = Array.to_list row in
            (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
          rows
      end
    in
    let out = { Row.cols; rows = [] } in
    let rows =
      let key row = List.map (fun (e, _) -> eval g (env out row) e) sb.order_by in
      let cmp a b =
        let rec go = function
          | ((ka, kb), dir) :: rest ->
            let c = Row.rval_compare ka kb in
            if c <> 0 then (match dir with Ast.Asc -> c | Ast.Desc -> -c) else go rest
          | [] -> 0
        in
        go (List.combine (List.combine (key a) (key b)) (List.map snd sb.order_by))
      in
      if sb.order_by = [] then rows else List.stable_sort cmp rows
    in
    let rows = match sb.limit with Some n -> List.filteri (fun i _ -> i < n) rows | None -> rows in
    { Row.cols; rows }
end

(* A small lineage graph whose properties exercise the aggregates:
   CPU is Int or Float with ties across the two (2 and 2.0) or
   missing, [w] mixes numbers, strings and a boolean, and names are
   strings on every Job and File. *)
let mixed_lineage seed =
  let rng = Kaskade_util.Prng.create seed in
  let pick a = a.(Kaskade_util.Prng.int rng (Array.length a)) in
  let b = Builder.create lineage_schema in
  let cpus = [| Some (Value.Int 1); Some (Value.Int 2); Some (Value.Float 2.0); Some (Value.Float 0.5); None |] in
  let ws =
    [| Some (Value.Int 1); Some (Value.Int 2); Some (Value.Float 2.0); Some (Value.Float 0.5);
       Some (Value.Str "x"); Some (Value.Str "y"); Some (Value.Bool true); None |]
  in
  let opt k = function Some v -> [ (k, v) ] | None -> [] in
  let jobs =
    Array.init (3 + Kaskade_util.Prng.int rng 5) (fun _ ->
        Builder.add_vertex b ~vtype:"Job"
          ~props:
            ([ ("name", Value.Str (Printf.sprintf "j%d" (Kaskade_util.Prng.int rng 4)));
               ("pipelineName", Value.Str (pick [| "p0"; "p1" |])) ]
            @ opt "CPU" (pick cpus) @ opt "w" (pick ws))
          ())
  in
  let files =
    Array.init (2 + Kaskade_util.Prng.int rng 4) (fun i ->
        Builder.add_vertex b ~vtype:"File"
          ~props:(("name", Value.Str (Printf.sprintf "f%d" (i mod 3))) :: opt "w" (pick ws))
          ())
  in
  let user = Builder.add_vertex b ~vtype:"User" ~props:[ ("name", Value.Str "u") ] () in
  let edge s d t = ignore (Builder.add_edge b ~src:s ~dst:d ~etype:t ()) in
  Array.iter
    (fun j ->
      Array.iter
        (fun f ->
          if Kaskade_util.Prng.int rng 3 = 0 then edge j f "WRITES_TO";
          if Kaskade_util.Prng.int rng 3 = 0 then edge f j "IS_READ_BY")
        files;
      if Kaskade_util.Prng.int rng 2 = 0 then edge user j "SUBMITTED")
    jobs;
  Graph.freeze b

let select_sources =
  [| "MATCH (a:Job)-[r:WRITES_TO]->(b:File) RETURN a, b, r";
     (* Untyped endpoints: CPU is null off Job. *)
     "MATCH (a)-[r]->(b) RETURN a, b, r";
     "MATCH (a:Job)-[r*1..3]->(b) RETURN a, b, r";
     (* Matches nothing. *)
     "MATCH (a:Job)-[r:WRITES_TO]->(b:File) WHERE a.CPU > 1000 RETURN a, b, r" |]

let select_items =
  [| "a"; "b"; "a.pipelineName"; "b.w"; "COUNT(*)"; "COUNT(a.CPU)"; "COUNT(b.w)"; "SUM(a.CPU)";
     "AVG(a.CPU)"; "AVG(b.w)"; "MIN(a.CPU)"; "MAX(a.CPU)"; "MIN(b.w)"; "MAX(b.w)"; "MIN(a.name)";
     "MAX(b.name)"; "SUM(a.CPU) + 1"; "-MAX(a.CPU)"; "MAX(r)" |]

let gen_select_text =
  let open QCheck.Gen in
  let* source = oneofa select_sources in
  let* where = oneofl [ ""; " WHERE a.CPU > 1"; " WHERE b.w = 2" ] in
  let* group_by = oneofl [ []; [ "a" ]; [ "a"; "b" ]; [ "a.pipelineName" ]; [ "b.w" ] ] in
  let* items = list_size (1 -- 4) (oneofa select_items) in
  let* distinct = bool in
  let aliases = List.mapi (fun i _ -> Printf.sprintf "c%d" i) items in
  let* order_by = list_size (0 -- 2) (pair (oneofl aliases) (oneofl [ " ASC"; " DESC" ])) in
  let+ limit = opt (0 -- 5) in
  Printf.sprintf "SELECT %s%s FROM (%s)%s%s%s%s" (if distinct then "DISTINCT " else "")
    (String.concat ", " (List.map2 (fun e a -> e ^ " AS " ^ a) items aliases))
    source where
    (if group_by = [] then "" else " GROUP BY " ^ String.concat ", " group_by)
    (if order_by = [] then ""
     else " ORDER BY " ^ String.concat ", " (List.map (fun (a, d) -> a ^ d) order_by))
    (match limit with Some n -> Printf.sprintf " LIMIT %d" n | None -> "")

let prop_select_matches_oracle =
  QCheck.Test.make ~name:"SELECT operators = member-list oracle" ~count:300
    QCheck.(pair (make ~print:Fun.id gen_select_text) (0 -- 1000))
    (fun (text, seed) ->
      let g = mixed_lineage seed in
      let ctx = Executor.create g in
      match Kaskade_query.Qparser.parse text with
      | Kaskade_query.Ast.Select ({ from = Kaskade_query.Ast.From_match mb; _ } as sb) ->
        let source = Executor.table_exn (Executor.run ctx (Kaskade_query.Ast.Match_only mb)) in
        let expected = Oracle.select g sb source in
        let got = Executor.table_exn (Executor.run ctx (Kaskade_query.Ast.Select sb)) in
        got.Row.cols = expected.Row.cols && Stdlib.compare got.Row.rows expected.Row.rows = 0
      | _ -> QCheck.Test.fail_report "not a SELECT over a MATCH")

(* ------------------------------------------------------------------ *)
(* CALL procedures                                                     *)

let test_call_label_propagation () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (match Executor.run_string ctx "CALL algo.labelPropagation(5)" with
  | Executor.Affected n -> check_int "touches all vertices" (Graph.n_vertices g) n
  | _ -> Alcotest.fail "expected Affected")

let test_call_largest_community () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  ignore (Executor.run_string ctx "CALL algo.labelPropagation(5)");
  let t = table ctx "CALL algo.largestCommunity('Job')" in
  check_bool "nonempty" true (Row.n_rows t > 0)

let test_call_largest_requires_lp () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "raises without LP" true
    (try
       ignore (table ctx "CALL algo.largestCommunity('Job')");
       false
     with Invalid_argument _ -> true)

let test_call_unknown_proc () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "unknown proc" true
    (try
       ignore (Executor.run_string ctx "CALL algo.bogus(1)");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_monotone_in_path_length () =
  (* A denser graph, where each expansion has branching factor > 1. *)
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 100; files = 150; seed = 2 }) in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  let c1 = cost "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a" in
  let c2 = cost "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a" in
  check_bool "longer pattern costs more" true (c2 > c1)

let test_cost_var_length_grows () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  let short = cost "MATCH (f:File)-[r*1..2]->(x) RETURN f" in
  let long = cost "MATCH (f:File)-[r*1..8]->(x) RETURN f" in
  check_bool "wider range costs more" true (long >= short)

let test_cost_deg_override () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j" in
  let base = Cost.eval_cost stats schema q in
  let boosted =
    Cost.eval_cost ~deg_override:(fun l -> if l = "Job" then Some 50.0 else None) stats schema q
  in
  check_bool "override raises cost" true (boosted > base)

let test_cost_scan_label_cheaper () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  check_bool "typed scan cheaper than full scan" true
    (cost "MATCH (j:Job) RETURN j" < cost "MATCH (n) RETURN n")



(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let row_set (t : Row.table) = List.sort_uniq compare t.Row.rows

let test_planner_anchor_choice () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  (* Users (2) are rarer than Jobs (3): anchor at the User end. *)
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)<-[:SUBMITTED]-(u:User) RETURN j, u" in
  (match Ast_patterns.first q with
  | Some p ->
    check_int "anchor at user" 1 (Planner.anchor_position stats schema ~bound:(fun _ -> false) p)
  | None -> Alcotest.fail "no pattern");
  (* An unlabelled head loses to any labelled node. *)
  let q2 = Kaskade_query.Qparser.parse "MATCH (x)-[:WRITES_TO]->(f:File) RETURN x, f" in
  match Ast_patterns.first q2 with
  | Some p ->
    check_int "anchor at file" 1 (Planner.anchor_position stats schema ~bound:(fun _ -> false) p)
  | None -> Alcotest.fail "no pattern"

let test_planner_bound_var_wins () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  match Ast_patterns.first q with
  | Some p ->
    check_int "bound j beats File scan" 0
      (Planner.anchor_position stats schema ~bound:(fun v -> v = "j") p)
  | None -> Alcotest.fail "no pattern"

let test_planner_preserves_results () =
  let g, _, _, _ = small_lineage () in
  let plain = Executor.create g in
  let planned = Executor.create ~planner:true g in
  List.iter
    (fun src ->
      let a = row_set (table plain src) and b = row_set (table planned src) in
      if a <> b then Alcotest.failf "planner changed results of %s" src)
    [ "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
      "MATCH (x)-[:WRITES_TO]->(f:File) RETURN x, f";
      "MATCH (u:User)-[:SUBMITTED]->(j:Job)-[:WRITES_TO]->(f:File) RETURN u, f";
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[r*0..4]->(g2:File) RETURN a, g2";
      "MATCH (f:File)<-[:WRITES_TO]-(j:Job)<-[:SUBMITTED]-(u:User) RETURN f, u";
      "SELECT COUNT(*) FROM (MATCH (a)-[r]->(b) RETURN a)" ]

let prop_planner_equivalent =
  QCheck.Test.make ~name:"planner preserves result sets" ~count:20
    QCheck.(pair (10 -- 50) (0 -- 300))
    (fun (jobs, seed) ->
      let g = Kaskade_gen.Provenance_gen.(generate { default with jobs; files = 2 * jobs; seed }) in
      let plain = Executor.create g in
      let planned = Executor.create ~planner:true g in
      List.for_all
        (fun src -> row_set (table plain src) = row_set (table planned src))
        [ "MATCH (x)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN x, b";
          "MATCH (t:Task)<-[:HAS_TASK]-(j:Job)-[:WRITES_TO]->(f:File) RETURN t, f";
          "MATCH (j:Job)-[r*1..3]->(x) RETURN j, x" ])

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

let test_null_propagation () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Files have no CPU: comparisons with Null are falsy, so the filter
     keeps nothing. *)
  let t = table ctx "MATCH (f:File) WHERE f.CPU > 0 RETURN f" in
  check_int "null comparisons fail" 0 (Row.n_rows t)

let test_missing_prop_projects_null () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File) RETURN f.CPU" in
  check_int "rows" 3 (Row.n_rows t);
  List.iter
    (fun row -> check_bool "null" true (Row.rval_equal row.(0) (Row.Prim Value.Null)))
    t.Row.rows

let test_avg_of_empty_group () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* WHERE keeps nothing; SQL still yields a single aggregate row,
     with a NULL average. *)
  let t = table ctx "SELECT AVG(j.CPU) FROM (MATCH (j:Job) RETURN j) WHERE j.CPU > 1000" in
  match t.Row.rows with
  | [ [| v |] ] -> check_bool "null avg" true (Row.rval_equal v (Row.Prim Value.Null))
  | _ -> Alcotest.fail "expected exactly one aggregate row"

let test_sum_skips_nulls () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Mixed vertex set: only jobs carry CPU; SUM ignores nulls. *)
  let t = table ctx "SELECT SUM(n.CPU) FROM (MATCH (n) RETURN n)" in
  match t.Row.rows with
  | [ [| Row.Prim v |] ] -> check_bool "sum over jobs only" true (Value.equal v (Value.Float 60.0))
  | _ -> Alcotest.fail "bad shape"

let test_count_vs_count_star () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx "SELECT COUNT(*), COUNT(n.CPU) FROM (MATCH (n) RETURN n)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int all); Row.Prim (Value.Int non_null) |] ] ->
    check_int "count star counts rows" (Graph.n_vertices g) all;
    check_int "count expr skips nulls" 3 non_null
  | _ -> Alcotest.fail "bad shape"

let test_string_predicates () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.pipelineName = 'alpha' RETURN j" in
  check_int "string equality" 2 (Row.n_rows t);
  let t2 = table ctx "MATCH (j:Job) WHERE j.pipelineName <> 'alpha' RETURN j" in
  check_int "string inequality" 1 (Row.n_rows t2)

let test_arithmetic_in_projection () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.CPU * 2 >= 40 RETURN j.CPU + 1 AS c" in
  check_int "two jobs qualify" 2 (Row.n_rows t);
  List.iter
    (fun row ->
      match row.(0) with
      | Row.Prim (Value.Float c) -> check_bool "bumped" true (c = 21.0 || c = 31.0)
      | _ -> Alcotest.fail "expected float")
    t.Row.rows

let test_triple_nested_select () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT MAX(avg_cpu) FROM (SELECT p, AVG(c) AS avg_cpu FROM (SELECT j.pipelineName AS p, j.CPU AS c FROM (MATCH (j:Job) RETURN j)) GROUP BY p)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float m) |] ] -> Alcotest.(check (float 1e-9)) "max of avgs" 30.0 m
  | _ -> Alcotest.fail "bad shape"

let test_self_join_same_var () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* (a)-->(a) requires a self loop; none exist. *)
  let t = table ctx "MATCH (a:Job)-[:WRITES_TO]->(f:File)<-[:WRITES_TO]-(a:Job) RETURN a, f" in
  (* Both endpoints are the same var: only genuine (a writes f) rows
     where the same a matches twice. *)
  check_int "self-join consistency" 3 (Row.n_rows t)

let test_empty_graph () =
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let g = Graph.freeze (Builder.create schema) in
  let ctx = Executor.create g in
  check_int "scan empty" 0 (Row.n_rows (table ctx "MATCH (n:V) RETURN n"));
  let t = table ctx "SELECT COUNT(*) FROM (MATCH (n:V) RETURN n)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int 0) |] ] -> ()
  | _ -> Alcotest.fail "count on empty graph"

let test_var_length_unbounded () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* `*` = 1..infinity terminates because BFS exhausts the frontier. *)
  let t = table ctx "MATCH (f:File)-[r*]->(x) RETURN f, x" in
  check_bool "terminates with results" true (Row.n_rows t > 0)

(* ------------------------------------------------------------------ *)
(* Parallel start scans                                                *)

let test_parallel_scan_matches_sequential () =
  (* Past the candidate threshold the executor fans the start scan out
     over work-stealing morsels. Rows — and their order — must be
     byte-identical to the sequential context; oversubscription forces
     real worker domains even on a single-core host. *)
  let g =
    Kaskade_gen.Provenance_gen.(generate { default with jobs = 2_500; files = 5_000; seed = 7 })
  in
  let seq_ctx = Executor.create g in
  let par_ctx =
    Executor.create ~pool:(Kaskade_util.Pool.create ~domains:4 ~oversubscribe:true ()) g
  in
  List.iter
    (fun src ->
      let a = table seq_ctx src in
      let b = table par_ctx src in
      check_bool (src ^ ": identical rows in identical order") true
        (a.Row.rows = b.Row.rows && a.Row.cols = b.Row.cols))
    [ "MATCH (j:Job) RETURN j";
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
      "MATCH (n) RETURN n";
      "SELECT COUNT(*) FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f)" ]

let test_parallel_scan_budget_exhaustion () =
  (* A mid-scan budget trip inside a morsel must surface as the usual
     typed [Budget.Exhausted] and leave the context reusable. *)
  let g =
    Kaskade_gen.Provenance_gen.(generate { default with jobs = 2_500; files = 5_000; seed = 7 })
  in
  let pool = Kaskade_util.Pool.create ~domains:4 ~oversubscribe:true () in
  let ctx = Executor.create ~pool g in
  let b = Kaskade_util.Budget.create ~max_steps:100 () in
  (try
     ignore (Executor.run ~budget:b ctx (Kaskade_query.Qparser.parse "MATCH (j:Job) RETURN j"));
     Alcotest.fail "expected budget exhaustion"
   with Kaskade_util.Budget.Exhausted e ->
     check_bool "execute stage" true (e.stage = Kaskade_util.Budget.Execute));
  check_int "context still runs after exhaustion" 2_500
    (Row.n_rows (table ctx "MATCH (j:Job) RETURN j"))

let () =
  Alcotest.run "kaskade_exec"
    [
      ( "match",
        [
          Alcotest.test_case "scan by label" `Quick test_scan_by_label;
          Alcotest.test_case "scan all" `Quick test_scan_all;
          Alcotest.test_case "single expand" `Quick test_single_edge_expand;
          Alcotest.test_case "backward edge" `Quick test_backward_edge;
          Alcotest.test_case "two-hop chain" `Quick test_two_hop_chain;
          Alcotest.test_case "shared-var join" `Quick test_shared_var_join;
          Alcotest.test_case "unknown label rejected" `Quick test_unknown_label_rejected;
          Alcotest.test_case "edge var binding" `Quick test_edge_var_binding;
        ] );
      ( "var_length",
        [
          Alcotest.test_case "distinct endpoints" `Quick test_var_length_distinct;
          Alcotest.test_case "zero lower bound" `Quick test_var_length_zero_lo;
          Alcotest.test_case "trail multiplicity" `Quick test_var_length_trails_multiplicity;
          Alcotest.test_case "modes agree on sets" `Quick test_var_length_modes_agree_on_sets;
          Alcotest.test_case "cycle self-pair" `Quick test_var_length_cycle_self_pair;
          Alcotest.test_case "lo=2 walk semantics" `Quick test_var_length_lo2_walk_semantics;
          Alcotest.test_case "edge-type filter" `Quick test_var_length_etype_filter;
          QCheck_alcotest.to_alcotest prop_var_length_matches_reference;
          QCheck_alcotest.to_alcotest prop_var_length_trails_matches_reference;
        ] );
      ( "relational",
        [
          Alcotest.test_case "where on vertex prop" `Quick test_where_on_vertex_prop;
          Alcotest.test_case "projection" `Quick test_projection_props;
          Alcotest.test_case "count(*)" `Quick test_count_star;
          Alcotest.test_case "group by + aggregates" `Quick test_group_by_aggregates;
          Alcotest.test_case "avg" `Quick test_avg;
          Alcotest.test_case "nested select" `Quick test_nested_select;
          Alcotest.test_case "outer where" `Quick test_select_where;
          Alcotest.test_case "group by vertex" `Quick test_group_by_vertex;
          Alcotest.test_case "listing 1 end-to-end" `Quick test_listing1_full;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "order by aggregate alias" `Quick test_order_by_aggregate_alias;
          Alcotest.test_case "index probe" `Quick test_index_probe_scan;
          Alcotest.test_case "select distinct" `Quick test_select_distinct;
          QCheck_alcotest.to_alcotest prop_index_probe_equivalent;
          QCheck_alcotest.to_alcotest prop_select_matches_oracle;
        ] );
      ( "call",
        [
          Alcotest.test_case "label propagation" `Quick test_call_label_propagation;
          Alcotest.test_case "largest community" `Quick test_call_largest_community;
          Alcotest.test_case "largest requires LP" `Quick test_call_largest_requires_lp;
          Alcotest.test_case "unknown procedure" `Quick test_call_unknown_proc;
        ] );
      ( "planner",
        [
          Alcotest.test_case "anchor choice" `Quick test_planner_anchor_choice;
          Alcotest.test_case "bound variable wins" `Quick test_planner_bound_var_wins;
          Alcotest.test_case "results preserved" `Quick test_planner_preserves_results;
          QCheck_alcotest.to_alcotest prop_planner_equivalent;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "null comparisons" `Quick test_null_propagation;
          Alcotest.test_case "missing prop is null" `Quick test_missing_prop_projects_null;
          Alcotest.test_case "empty aggregate group" `Quick test_avg_of_empty_group;
          Alcotest.test_case "sum skips nulls" `Quick test_sum_skips_nulls;
          Alcotest.test_case "count vs count(*)" `Quick test_count_vs_count_star;
          Alcotest.test_case "string predicates" `Quick test_string_predicates;
          Alcotest.test_case "arithmetic projection" `Quick test_arithmetic_in_projection;
          Alcotest.test_case "triple nesting" `Quick test_triple_nested_select;
          Alcotest.test_case "repeated variable" `Quick test_self_join_same_var;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "unbounded var-length" `Quick test_var_length_unbounded;
        ] );
      ( "parallel_scan",
        [
          Alcotest.test_case "matches sequential rows and order" `Quick
            test_parallel_scan_matches_sequential;
          Alcotest.test_case "budget exhaustion mid-morsel" `Quick
            test_parallel_scan_budget_exhaustion;
        ] );
      ( "cost",
        [
          Alcotest.test_case "monotone in path length" `Quick test_cost_monotone_in_path_length;
          Alcotest.test_case "var-length growth" `Quick test_cost_var_length_grows;
          Alcotest.test_case "deg override" `Quick test_cost_deg_override;
          Alcotest.test_case "typed scan cheaper" `Quick test_cost_scan_label_cheaper;
        ] );
    ]
