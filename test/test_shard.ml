(* Sharded-CSR equivalence: a partitioned graph must be
   observationally identical to the single CSR it was built from —
   same query bytes, same statistics, same components, same adjacency
   — at every shard count, under both partition policies, across
   generators with very different shapes. The hash policy on
   generator graphs (vids assigned in type blocks) is deliberately
   cut-edge-heavy, so the exchange path gets real traffic. *)

open Kaskade_graph
module Exec = Kaskade_exec.Executor
module Row = Kaskade_exec.Row

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let shard_counts = [ 1; 2; 4 ]
let policies = [ Shard.Hash; Shard.Type_range ]

(* Three shapes: heterogeneous DAG-ish provenance, bipartite-flavored
   dblp, and a skewed homogeneous power-law graph. *)
let generators =
  [ ( "prov",
      lazy Kaskade_gen.Provenance_gen.(generate { default with jobs = 220; files = 400; seed = 9 })
    );
    ("dblp", lazy Kaskade_gen.Dblp_gen.(generate (scaled ~edges:2_500 ~seed:5)));
    ("soc", lazy Kaskade_gen.Powerlaw_gen.(generate (scaled ~edges:2_500 ~seed:5))) ]

let each_config f =
  List.iter
    (fun (gname, g) ->
      let g = Lazy.force g in
      List.iter
        (fun policy ->
          List.iter
            (fun s ->
              let label =
                Printf.sprintf "%s policy=%s shards=%d" gname (Shard.policy_name policy) s
              in
              f ~label g (Shard.of_graph ~policy ~shards:s g))
            shard_counts)
        policies)
    generators

(* Schema-generic workload: a typed one-hop over the first edge type
   plus typed/untyped variable-length expansions from the first vertex
   type — the executor shapes (scan, typed expand, BFS endpoints) that
   read adjacency hardest. *)
let workload_for g =
  let schema = Graph.schema g in
  let vt = Schema.vertex_type_name schema 0 in
  let et = Schema.edge_type_name schema 0 in
  [ Printf.sprintf "MATCH (a:%s)-[:%s]->(b) RETURN a, b" (Schema.vertex_type_name schema (Schema.edge_src schema 0)) et;
    Printf.sprintf "MATCH (a:%s)-[r*1..3]->(b) RETURN a, b" vt;
    Printf.sprintf "MATCH (a:%s)<-[r*1..2]-(b) RETURN a, b" vt ]

let result_bytes g = function
  | Exec.Affected n -> Printf.sprintf "affected %d" n
  | Exec.Table t ->
    let buf = Buffer.create 4096 in
    Array.iter (fun c -> Buffer.add_string buf c; Buffer.add_char buf '\t') t.Row.cols;
    List.iter
      (fun row ->
        Buffer.add_char buf '\n';
        Array.iter
          (fun v ->
            Buffer.add_string buf (Row.rval_to_string g v);
            Buffer.add_char buf '\t')
          row)
      t.Row.rows;
    Buffer.contents buf

let test_query_identity () =
  List.iter
    (fun (gname, g) ->
      let g = Lazy.force g in
      let queries = workload_for g in
      let baseline =
        let ctx = Exec.create g in
        List.map (fun q -> result_bytes g (Exec.run_string ctx q)) queries
      in
      List.iter
        (fun policy ->
          List.iter
            (fun s ->
              let ctx = Exec.create ~shard_policy:policy ~shards:s g in
              List.iter2
                (fun q expected ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s policy=%s shards=%d: %s" gname
                       (Shard.policy_name policy) s q)
                    expected
                    (result_bytes g (Exec.run_string ctx q)))
                queries baseline)
            shard_counts)
        policies)
    generators

let test_adjacency_equivalence () =
  each_config (fun ~label g sh ->
      let n = Graph.n_vertices g in
      check_int (label ^ ": n_vertices") n (Shard.n_vertices sh);
      check_int (label ^ ": n_edges") (Graph.n_edges g) (Shard.n_edges sh);
      let collect_g v =
        let acc = ref [] in
        Graph.iter_out g v (fun ~dst ~etype ~eid -> acc := (dst, etype, eid) :: !acc);
        Graph.iter_in g v (fun ~src ~etype ~eid -> acc := (src, -etype - 1, eid) :: !acc);
        List.rev !acc
      in
      let collect_s v =
        let acc = ref [] in
        Shard.iter_out sh v (fun ~dst ~etype ~eid -> acc := (dst, etype, eid) :: !acc);
        Shard.iter_in sh v (fun ~src ~etype ~eid -> acc := (src, -etype - 1, eid) :: !acc);
        List.rev !acc
      in
      for v = 0 to n - 1 do
        if collect_g v <> collect_s v then
          Alcotest.failf "%s: adjacency of vertex %d differs" label v
      done;
      (* Typed runs too, on a sample of vertices x every edge type. *)
      let nets = Schema.n_edge_types (Graph.schema g) in
      let step = Stdlib.max 1 (n / 64) in
      let v = ref 0 in
      while !v < n do
        for ety = 0 to nets - 1 do
          let tg = ref [] and ts = ref [] in
          Graph.iter_out_etype g !v ~etype:ety (fun ~dst ~eid -> tg := (dst, eid) :: !tg);
          Shard.iter_out_etype sh !v ~etype:ety (fun ~dst ~eid -> ts := (dst, eid) :: !ts);
          Graph.iter_in_etype g !v ~etype:ety (fun ~src ~eid -> tg := (src, eid) :: !tg);
          Shard.iter_in_etype sh !v ~etype:ety (fun ~src ~eid -> ts := (src, eid) :: !ts);
          if !tg <> !ts then Alcotest.failf "%s: typed adjacency of vertex %d differs" label !v
        done;
        v := !v + step
      done;
      (* Scan candidates must be the same physical order (global vids
         ascending) — what keeps executor result bytes shard-blind. *)
      for ty = 0 to Schema.n_vertex_types (Graph.schema g) - 1 do
        if Graph.vertices_of_type g ty <> Shard.vertices_of_type sh ty then
          Alcotest.failf "%s: scan candidates differ for vertex type %d" label ty
      done)

let test_gstats_equal () =
  each_config (fun ~label g sh ->
      (* Per-shard stats must cover the graph exactly once. *)
      let per = Gstats.per_shard sh in
      check_int (label ^ ": per-shard count") (Shard.n_shards sh) (Array.length per);
      check_int
        (label ^ ": per-shard vertices sum")
        (Graph.n_vertices g)
        (Array.fold_left (fun acc st -> acc + Gstats.total_vertices st) 0 per);
      check_int
        (label ^ ": per-shard edges sum")
        (Graph.n_edges g)
        (Array.fold_left (fun acc st -> acc + Gstats.total_edges st) 0 per))

(* Union-find roots are representation; the partition is the
   contract. Compare first-occurrence-normalized component labels. *)
let canonical_labels uf n =
  let seen = Hashtbl.create 16 in
  Array.init n (fun v ->
      let r = Kaskade_util.Union_find.find uf v in
      match Hashtbl.find_opt seen r with
      | Some c -> c
      | None ->
        let c = Hashtbl.length seen in
        Hashtbl.add seen r c;
        c)

let test_connectivity_equal () =
  each_config (fun ~label g sh ->
      let n = Graph.n_vertices g in
      let a = canonical_labels (Kaskade_algo.Connectivity.components g) n in
      let b = canonical_labels (Kaskade_algo.Connectivity.components_sharded sh) n in
      check_bool (label ^ ": components equal") true (a = b);
      check_int
        (label ^ ": n_components")
        (Kaskade_algo.Connectivity.n_components g)
        (Kaskade_util.Union_find.count (Kaskade_algo.Connectivity.components_sharded sh)))

let test_traverse_equal () =
  each_config (fun ~label g sh ->
      let n = Graph.n_vertices g in
      let sources = List.init 8 (fun i -> i * Stdlib.max 1 (n / 8)) in
      List.iter
        (fun src ->
          List.iter
            (fun dir ->
              let a = Kaskade_algo.Traverse.reachable_within g ~src ~max_hops:3 ~dir () in
              let b =
                Kaskade_algo.Traverse.reachable_within_sharded sh ~src ~max_hops:3 ~dir ()
              in
              if a <> b then
                Alcotest.failf "%s: reachable_within differs from src %d" label src)
            [ Kaskade_algo.Traverse.Out; Kaskade_algo.Traverse.In ])
        sources)

let test_typed_scan_invariant () =
  each_config (fun ~label g sh ->
      let schema = Graph.schema g in
      for ety = 0 to Schema.n_edge_types schema - 1 do
        let rows = ref 0 and sum = ref 0 in
        Array.iter
          (fun v ->
            Graph.iter_out_etype g v ~etype:ety (fun ~dst ~eid:_ ->
                Stdlib.incr rows;
                sum := (!sum + dst) land max_int))
          (Graph.vertices_of_type g (Schema.edge_src schema ety));
        let srows, ssum = Shard.typed_scan sh ~etype:ety in
        check_int (Printf.sprintf "%s: typed_scan rows etype=%d" label ety) !rows srows;
        check_int (Printf.sprintf "%s: typed_scan checksum etype=%d" label ety) !sum ssum
      done)

(* The sharded layer on prov (300 jobs, 600 files, seed 42): four
   provenance queries (typed 1-hop out and in, variable-length out and
   in) byte-identical to the unsharded executor; [typed_scan] over
   WRITES_TO (739 rows on this fixture) equal to a single-CSR walk in
   rows and destination checksum across pool widths 1 and 4; and the
   largest shard holding at most twice the per-shard average of
   memory words. Every check runs at S in {1, 2, 4} under both
   policies. *)
let test_prov_fixture () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 }) in
  let queries =
    [ "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
      "MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j";
      "MATCH (s:Job)-[r*1..4]->(desc:Job) RETURN s, desc";
      "MATCH (s:Job)<-[r*1..4]-(anc:Job) RETURN s, anc" ]
  in
  let baseline =
    let ctx = Exec.create g in
    List.map (fun q -> result_bytes g (Exec.run_string ctx q)) queries
  in
  let schema = Graph.schema g in
  let etid = Schema.edge_type_id schema "WRITES_TO" in
  let ref_rows = ref 0 and ref_sum = ref 0 in
  Array.iter
    (fun v ->
      Graph.iter_out_etype g v ~etype:etid (fun ~dst ~eid:_ ->
          Stdlib.incr ref_rows;
          ref_sum := (!ref_sum + dst) land max_int))
    (Graph.vertices_of_type g (Schema.edge_src schema etid));
  check_int "WRITES_TO rows on the fixture" 739 !ref_rows;
  let pools = [ Kaskade_util.Pool.create ~domains:1 (); Kaskade_util.Pool.create ~domains:4 () ] in
  List.iter
    (fun policy ->
      List.iter
        (fun s ->
          let label = Printf.sprintf "policy=%s shards=%d" (Shard.policy_name policy) s in
          let ctx = Exec.create ~shard_policy:policy ~shards:s g in
          List.iter2
            (fun q expected ->
              Alcotest.(check string) (label ^ ": " ^ q) expected (result_bytes g (Exec.run_string ctx q)))
            queries baseline;
          let sh = Shard.of_graph ~policy ~shards:s g in
          List.iter
            (fun pool ->
              let rows, sum = Shard.typed_scan ~pool sh ~etype:etid in
              let label = Printf.sprintf "%s domains=%d" label (Kaskade_util.Pool.domains pool) in
              check_int (label ^ ": typed_scan rows") !ref_rows rows;
              check_int (label ^ ": typed_scan checksum") !ref_sum sum)
            pools;
          let biggest =
            List.fold_left Stdlib.max 0 (List.init s (fun i -> Shard.shard_memory_words sh i))
          in
          check_bool (label ^ ": largest shard <= 2x the average") true
            (biggest * s <= 2 * Shard.memory_words sh))
        shard_counts)
    policies

let test_facade_sharded_run () =
  (* The facade path: views selected, materialized and queried through
     sharded contexts must answer exactly like the unsharded facade. *)
  let g = Lazy.force (List.assoc "prov" generators) in
  let q = Kaskade.parse "MATCH (s:Job)-[r*1..4]->(d:Job) RETURN s, d" in
  let run ks =
    let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:(4 * Graph.n_edges g) in
    ignore (Kaskade.materialize_selected ks sel);
    let r, how =
      match Kaskade.query ks q with
      | Ok v -> v
      | Error e -> Alcotest.failf "unexpected facade error: %s" (Kaskade.Error.to_string e)
    in
    (result_bytes g r, how)
  in
  let bytes0, how0 = run (Kaskade.make g) in
  List.iter
    (fun s ->
      let bytes, how = run (Kaskade.make ~config:{ Kaskade.Config.default with shards = s } g) in
      check_bool (Printf.sprintf "routing equal at shards=%d" s) true (how = how0);
      Alcotest.(check string) (Printf.sprintf "rows equal at shards=%d" s) bytes0 bytes)
    [ 2; 4 ]

let () =
  Alcotest.run "kaskade_shard"
    [
      ( "identity",
        [
          Alcotest.test_case "query results byte-identical" `Quick test_query_identity;
          Alcotest.test_case "adjacency equivalence" `Quick test_adjacency_equivalence;
          Alcotest.test_case "gstats equal" `Quick test_gstats_equal;
          Alcotest.test_case "connectivity equal" `Quick test_connectivity_equal;
          Alcotest.test_case "traverse equal" `Quick test_traverse_equal;
          Alcotest.test_case "typed_scan invariant" `Quick test_typed_scan_invariant;
          Alcotest.test_case "facade sharded run" `Quick test_facade_sharded_run;
          Alcotest.test_case "prov seed 42 fixture" `Quick test_prov_fixture;
        ] );
    ]
