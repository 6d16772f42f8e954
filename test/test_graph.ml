open Kaskade_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The paper's provenance schema (Fig. 1 / §III-A). *)
let lineage_schema =
  Schema.define ~vertices:[ "Job"; "File" ]
    ~edges:[ ("Job", "WRITES_TO", "File"); ("File", "IS_READ_BY", "Job") ]

(* Small lineage instance used across cases: j0 writes f0, f1; f0 read
   by j1; f1 read by j1 and j2; j2 writes f2. *)
let small_lineage () =
  let b = Builder.create lineage_schema in
  let j = Array.init 3 (fun i -> Builder.add_vertex b ~vtype:"Job" ~props:[ ("name", Value.Str (Printf.sprintf "j%d" i)); ("CPU", Value.Float (float_of_int (10 * (i + 1)))) ] ()) in
  let f = Array.init 3 (fun i -> Builder.add_vertex b ~vtype:"File" ~props:[ ("name", Value.Str (Printf.sprintf "f%d" i)) ] ()) in
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO" ~props:[ ("timestamp", Value.Int 1) ] ());
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(1) ~etype:"WRITES_TO" ~props:[ ("timestamp", Value.Int 2) ] ());
  ignore (Builder.add_edge b ~src:f.(0) ~dst:j.(1) ~etype:"IS_READ_BY" ~props:[ ("timestamp", Value.Int 3) ] ());
  ignore (Builder.add_edge b ~src:f.(1) ~dst:j.(1) ~etype:"IS_READ_BY" ~props:[ ("timestamp", Value.Int 4) ] ());
  ignore (Builder.add_edge b ~src:f.(1) ~dst:j.(2) ~etype:"IS_READ_BY" ~props:[ ("timestamp", Value.Int 5) ] ());
  ignore (Builder.add_edge b ~src:j.(2) ~dst:f.(2) ~etype:"WRITES_TO" ~props:[ ("timestamp", Value.Int 6) ] ());
  (Graph.freeze b, j, f)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_arith () =
  check_bool "int add" true (Value.equal (Value.add (Value.Int 2) (Value.Int 3)) (Value.Int 5));
  check_bool "mixed add" true (Value.equal (Value.add (Value.Int 2) (Value.Float 0.5)) (Value.Float 2.5));
  check_bool "str concat" true (Value.equal (Value.add (Value.Str "a") (Value.Str "b")) (Value.Str "ab"));
  check_bool "null propagates" true (Value.equal (Value.add Value.Null (Value.Int 1)) Value.Null);
  check_bool "sub" true (Value.equal (Value.sub (Value.Int 5) (Value.Int 3)) (Value.Int 2));
  check_bool "mul" true (Value.equal (Value.mul (Value.Float 2.0) (Value.Int 3)) (Value.Float 6.0))

let test_value_compare () =
  check_bool "int/float numeric" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  check_bool "equal across kinds" true (Value.equal (Value.Int 2) (Value.Float 2.0));
  check_bool "null smallest" true (Value.compare Value.Null (Value.Bool false) < 0);
  check_bool "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0)

let test_value_truthiness () =
  check_bool "null falsy" false (Value.is_truthy Value.Null);
  check_bool "false falsy" false (Value.is_truthy (Value.Bool false));
  check_bool "zero truthy (cypherish)" true (Value.is_truthy (Value.Int 0))

let test_value_div_by_zero () =
  Alcotest.check_raises "div0" (Invalid_argument "Value.div: division by zero") (fun () ->
      ignore (Value.div (Value.Int 1) (Value.Int 0)))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let test_schema_lookup () =
  check_int "vertex id" 0 (Schema.vertex_type_id lineage_schema "Job");
  check_string "vertex name" "File" (Schema.vertex_type_name lineage_schema 1);
  check_int "edge id" 0 (Schema.edge_type_id lineage_schema "WRITES_TO");
  check_int "edge src" 0 (Schema.edge_src lineage_schema 0);
  check_int "edge dst" 1 (Schema.edge_dst lineage_schema 0)

let test_schema_duplicate () =
  Alcotest.check_raises "dup vertex" (Invalid_argument "Schema: duplicate vertex type A") (fun () ->
      ignore (Schema.define ~vertices:[ "A"; "A" ] ~edges:[]))

let test_schema_unknown_endpoint () =
  Alcotest.check_raises "unknown type" (Invalid_argument "Schema: unknown vertex type B") (fun () ->
      ignore (Schema.define ~vertices:[ "A" ] ~edges:[ ("A", "e", "B") ]))

let test_schema_edges_from () =
  Alcotest.(check (list int)) "from Job" [ 0 ] (Schema.edge_types_from lineage_schema 0)

let test_schema_homogeneous () =
  check_bool "lineage is hetero" false (Schema.is_homogeneous lineage_schema);
  let homo = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "LINK", "V") ] in
  check_bool "single type is homo" true (Schema.is_homogeneous homo)

let test_schema_restrict () =
  let s =
    Schema.define ~vertices:[ "A"; "B"; "C" ]
      ~edges:[ ("A", "ab", "B"); ("B", "bc", "C"); ("A", "ac", "C") ]
  in
  let r = Schema.restrict s ~keep_vertices:[ "A"; "B" ] in
  Alcotest.(check (list string)) "vertices" [ "A"; "B" ] (Schema.vertex_types r);
  check_int "edges" 1 (Schema.n_edge_types r)

let test_schema_add_edge_type () =
  let s = Schema.add_edge_type lineage_schema ~src:"Job" ~name:"JOB_TO_JOB_2HOP" ~dst:"Job" in
  check_bool "new edge" true (Schema.has_edge_type s "JOB_TO_JOB_2HOP");
  check_int "old edges kept" 3 (Schema.n_edge_types s)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

let test_builder_domain_range () =
  let b = Builder.create lineage_schema in
  let j = Builder.add_vertex b ~vtype:"Job" () in
  let f = Builder.add_vertex b ~vtype:"File" () in
  ignore (Builder.add_edge b ~src:j ~dst:f ~etype:"WRITES_TO" ());
  (* The paper's core structural constraint: a File cannot write. *)
  check_bool "file-file edge rejected" true
    (try
       ignore (Builder.add_edge b ~src:f ~dst:f ~etype:"WRITES_TO" ());
       false
     with Invalid_argument _ -> true);
  check_bool "job-job edge rejected" true
    (try
       ignore (Builder.add_edge b ~src:j ~dst:j ~etype:"IS_READ_BY" ());
       false
     with Invalid_argument _ -> true)

let test_builder_unknown_types () =
  let b = Builder.create lineage_schema in
  check_bool "unknown vertex type" true
    (try
       ignore (Builder.add_vertex b ~vtype:"Ghost" ());
       false
     with Invalid_argument _ -> true);
  let j = Builder.add_vertex b ~vtype:"Job" () in
  check_bool "unknown edge type" true
    (try
       ignore (Builder.add_edge b ~src:j ~dst:j ~etype:"GHOST" ());
       false
     with Invalid_argument _ -> true)

let test_builder_out_of_range () =
  let b = Builder.create lineage_schema in
  ignore (Builder.add_vertex b ~vtype:"Job" ());
  check_bool "bad endpoint" true
    (try
       ignore (Builder.add_edge b ~src:0 ~dst:99 ~etype:"WRITES_TO" ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Graph (CSR invariants)                                              *)

let test_graph_counts () =
  let g, _, _ = small_lineage () in
  check_int "vertices" 6 (Graph.n_vertices g);
  check_int "edges" 6 (Graph.n_edges g);
  check_int "jobs" 3 (Array.length (Graph.vertices_of_type g 0));
  check_int "files" 3 (Array.length (Graph.vertices_of_type g 1))

let test_graph_adjacency () =
  let g, j, f = small_lineage () in
  check_int "j0 out-degree" 2 (Graph.out_degree g j.(0));
  check_int "f1 out-degree" 2 (Graph.out_degree g f.(1));
  check_int "j1 in-degree" 2 (Graph.in_degree g j.(1));
  let neighbors = ref [] in
  Graph.iter_out g j.(0) (fun ~dst ~etype:_ ~eid:_ -> neighbors := dst :: !neighbors);
  let neighbors = List.sort compare !neighbors in
  Alcotest.(check (list int)) "j0 writes f0 f1" [ f.(0); f.(1) ] neighbors

let test_graph_degree_sum () =
  let g, _, _ = small_lineage () in
  let out_sum = ref 0 and in_sum = ref 0 in
  for v = 0 to Graph.n_vertices g - 1 do
    out_sum := !out_sum + Graph.out_degree g v;
    in_sum := !in_sum + Graph.in_degree g v
  done;
  check_int "sum out = m" (Graph.n_edges g) !out_sum;
  check_int "sum in = m" (Graph.n_edges g) !in_sum

let test_graph_edge_endpoints () =
  let g, j, f = small_lineage () in
  let s, d = Graph.edge_endpoints g 0 in
  check_int "edge 0 src" j.(0) s;
  check_int "edge 0 dst" f.(0) d;
  check_string "edge 0 type" "WRITES_TO" (Schema.edge_type_name (Graph.schema g) (Graph.edge_type g 0))

let test_graph_iter_etype () =
  let g, _, f = small_lineage () in
  let count = ref 0 in
  let etype = Schema.edge_type_id (Graph.schema g) "IS_READ_BY" in
  Graph.iter_out_etype g f.(1) ~etype (fun ~dst:_ ~eid:_ -> incr count);
  check_int "f1 read edges" 2 !count

(* Typed iteration over the type-segmented CSR against a filter-scan
   of the whole adjacency list, on prov (300 jobs, 600 files, seed 42):
   Job out-edges of type WRITES_TO (739 of them) and Job in-edges of
   type SUBMITTED must be the same (vertex, neighbour, edge) multisets.
   Then the 2-hop BFS from 64 spread sources over the scratch set and
   pooled frontiers must reach the same vertices as a Hashtbl BFS. *)
let test_graph_segmented_vs_filter_scan () =
  let module Scratch = Kaskade_util.Scratch in
  let module Int_vec = Kaskade_util.Int_vec in
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 }) in
  let schema = Graph.schema g in
  let jobs = Graph.vertices_of_type_name g "Job" in
  let collect iter =
    let acc = ref [] in
    Array.iter (fun v -> iter v (fun u eid -> acc := (v, u, eid) :: !acc)) jobs;
    List.sort compare !acc
  in
  let writes = Schema.edge_type_id schema "WRITES_TO" in
  let seg_out =
    collect (fun v k -> Graph.iter_out_etype g v ~etype:writes (fun ~dst ~eid -> k dst eid))
  in
  let scan_out =
    collect (fun v k ->
        Graph.iter_out g v (fun ~dst ~etype ~eid -> if etype = writes then k dst eid))
  in
  check_int "WRITES_TO rows on the fixture" 739 (List.length seg_out);
  check_bool "typed out-expansion = filter-scan" true (seg_out = scan_out);
  let submitted = Schema.edge_type_id schema "SUBMITTED" in
  let seg_in =
    collect (fun v k -> Graph.iter_in_etype g v ~etype:submitted (fun ~src ~eid -> k src eid))
  in
  let scan_in =
    collect (fun v k ->
        Graph.iter_in g v (fun ~src ~etype ~eid -> if etype = submitted then k src eid))
  in
  check_bool "typed in-expansion nonempty" true (seg_in <> []);
  check_bool "typed in-expansion = filter-scan" true (seg_in = scan_in);
  let n = Graph.n_vertices g in
  let sources = List.init (Stdlib.min 64 n) (fun i -> i * Stdlib.max 1 (n / 64)) in
  let reach_scratch src =
    Scratch.with_set ~n @@ fun visited ->
    Scratch.with_vec @@ fun vec_a ->
    Scratch.with_vec @@ fun vec_b ->
    let reached = ref [] in
    Scratch.add visited src;
    Int_vec.push vec_a src;
    let cur = ref vec_a and next = ref vec_b in
    for _hop = 1 to 2 do
      Int_vec.clear !next;
      let nv = !next in
      Int_vec.iter
        (fun v ->
          Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
              if not (Scratch.mem visited dst) then begin
                Scratch.add visited dst;
                reached := dst :: !reached;
                Int_vec.push nv dst
              end))
        !cur;
      let tmp = !cur in
      cur := !next;
      next := tmp
    done;
    List.sort compare !reached
  in
  let reach_hashtbl src =
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited src ();
    let reached = ref [] in
    let frontier = ref [ src ] in
    for _hop = 1 to 2 do
      let next = ref [] in
      List.iter
        (fun v ->
          Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
              if not (Hashtbl.mem visited dst) then begin
                Hashtbl.replace visited dst ();
                reached := dst :: !reached;
                next := dst :: !next
              end))
        !frontier;
      frontier := List.rev !next
    done;
    List.sort compare !reached
  in
  List.iter
    (fun src ->
      Alcotest.(check (list int))
        (Printf.sprintf "2-hop reach from %d" src)
        (reach_hashtbl src) (reach_scratch src))
    sources

let test_graph_props () =
  let g, j, _ = small_lineage () in
  check_bool "CPU" true (Graph.vprop g j.(1) "CPU" = Some (Value.Float 20.0));
  check_bool "missing is None" true (Graph.vprop g j.(1) "nope" = None);
  check_bool "missing or_null" true (Value.equal (Graph.vprop_or_null g j.(1) "nope") Value.Null);
  check_bool "edge ts" true (Graph.eprop g 0 "timestamp" = Some (Value.Int 1));
  check_int "props listed" 2 (List.length (Graph.vertex_props g j.(0)))

(* Property: freezing a random schema-valid graph preserves exactly
   the edge multiset, via both out- and in-CSR. *)
let prop_csr_roundtrip =
  QCheck.Test.make ~name:"CSR adjacency = inserted edge multiset" ~count:50
    QCheck.(pair (2 -- 30) (0 -- 120))
    (fun (n, m) ->
      let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
      let b = Builder.create schema in
      let rng = Kaskade_util.Prng.create (n + (m * 1000)) in
      let ids = Array.init n (fun _ -> Builder.add_vertex b ~vtype:"V" ()) in
      let inserted = ref [] in
      for _ = 1 to m do
        let s = Kaskade_util.Prng.choose rng ids and d = Kaskade_util.Prng.choose rng ids in
        ignore (Builder.add_edge b ~src:s ~dst:d ~etype:"E" ());
        inserted := (s, d) :: !inserted
      done;
      let g = Graph.freeze b in
      let from_out = ref [] in
      for v = 0 to n - 1 do
        Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> from_out := (v, dst) :: !from_out)
      done;
      let from_in = ref [] in
      for v = 0 to n - 1 do
        Graph.iter_in g v (fun ~src ~etype:_ ~eid:_ -> from_in := (src, v) :: !from_in)
      done;
      let norm l = List.sort compare l in
      norm !inserted = norm !from_out && norm !inserted = norm !from_in)

(* Property: on random multi-edge-type graphs, the segmented typed
   iterators return exactly the multiset the seed's filter-scan
   (iterate everything, test the type) returns — in both directions —
   and the typed slices partition each vertex's adjacency. *)
let prop_typed_iteration_matches_filter_scan =
  QCheck.Test.make ~name:"typed iteration = filter-scan multiset" ~count:50
    QCheck.(pair (2 -- 25) (0 -- 150))
    (fun (n, m) ->
      let etypes = [ "E0"; "E1"; "E2" ] in
      let schema =
        Schema.define ~vertices:[ "V" ] ~edges:(List.map (fun e -> ("V", e, "V")) etypes)
      in
      let b = Builder.create schema in
      let rng = Kaskade_util.Prng.create (n + (m * 7919)) in
      let ids = Array.init n (fun _ -> Builder.add_vertex b ~vtype:"V" ()) in
      for _ = 1 to m do
        let s = Kaskade_util.Prng.choose rng ids and d = Kaskade_util.Prng.choose rng ids in
        let e = List.nth etypes (Kaskade_util.Prng.int rng 3) in
        ignore (Builder.add_edge b ~src:s ~dst:d ~etype:e ())
      done;
      let g = Graph.freeze b in
      let norm l = List.sort compare l in
      let ok = ref true in
      for t = 0 to 2 do
        for v = 0 to n - 1 do
          (* Out-direction: typed walk vs filter over the full list. *)
          let typed = ref [] and scanned = ref [] in
          Graph.iter_out_etype g v ~etype:t (fun ~dst ~eid -> typed := (dst, eid) :: !typed);
          Graph.iter_out g v (fun ~dst ~etype ~eid ->
              if etype = t then scanned := (dst, eid) :: !scanned);
          if norm !typed <> norm !scanned then ok := false;
          if List.length !typed <> Graph.typed_out_degree g v ~etype:t then ok := false;
          (* In-direction. *)
          let typed_in = ref [] and scanned_in = ref [] in
          Graph.iter_in_etype g v ~etype:t (fun ~src ~eid -> typed_in := (src, eid) :: !typed_in);
          Graph.iter_in g v (fun ~src ~etype ~eid ->
              if etype = t then scanned_in := (src, eid) :: !scanned_in);
          if norm !typed_in <> norm !scanned_in then ok := false;
          if List.length !typed_in <> Graph.typed_in_degree g v ~etype:t then ok := false
        done
      done;
      (* Typed slices partition each vertex's CSR segment. *)
      for v = 0 to n - 1 do
        let sum = ref 0 in
        for t = 0 to 2 do
          let lo, hi = Graph.typed_out_slice g v ~etype:t in
          if hi < lo then ok := false;
          sum := !sum + (hi - lo)
        done;
        if !sum <> Graph.out_degree g v then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Subgraph                                                            *)

let test_subgraph_restrict_vertices () =
  let g, _, _ = small_lineage () in
  let keep_jobs v = Graph.vertex_type_name g v = "Job" in
  let sub, mapping =
    Subgraph.restrict ~vertex_pred:keep_jobs
      ~schema:(Schema.restrict (Graph.schema g) ~keep_vertices:[ "Job" ])
      g
  in
  check_int "only jobs" 3 (Graph.n_vertices sub);
  check_int "no edges survive" 0 (Graph.n_edges sub);
  check_int "mapping round trip" 3
    (Array.fold_left (fun acc x -> if x >= 0 then acc + 1 else acc) 0 mapping.Subgraph.new_of_old_vertex)

let test_subgraph_restrict_props_copied () =
  let g, j, _ = small_lineage () in
  let sub, mapping = Subgraph.restrict ~vertex_pred:(fun v -> v = j.(1)) ~schema:(Schema.restrict (Graph.schema g) ~keep_vertices:[ "Job" ]) g in
  let new_id = mapping.Subgraph.new_of_old_vertex.(j.(1)) in
  check_bool "prop copied" true (Graph.vprop sub new_id "CPU" = Some (Value.Float 20.0))

let test_subgraph_edge_prefix () =
  let g, _, _ = small_lineage () in
  let sub, _ = Subgraph.edge_prefix g 3 in
  check_int "3 edges" 3 (Graph.n_edges sub);
  check_bool "touched vertices only" true (Graph.n_vertices sub <= 6);
  let sub_all, _ = Subgraph.edge_prefix g 100 in
  check_int "prefix beyond m keeps all" 6 (Graph.n_edges sub_all)

let test_subgraph_edge_filter () =
  let g, _, _ = small_lineage () in
  let writes = Schema.edge_type_id (Graph.schema g) "WRITES_TO" in
  let sub, _ = Subgraph.restrict ~edge_pred:(fun ~eid:_ ~src:_ ~dst:_ ~etype -> etype = writes) g in
  check_int "writes only" 3 (Graph.n_edges sub);
  check_int "all vertices kept" 6 (Graph.n_vertices sub)

(* ------------------------------------------------------------------ *)
(* Gstats                                                              *)

let test_gstats_summary () =
  let g, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  check_int "total vertices" 6 (Gstats.total_vertices stats);
  check_int "total edges" 6 (Gstats.total_edges stats);
  let job = Gstats.summary_of_type stats 0 in
  check_int "jobs" 3 job.Gstats.count;
  check_int "job max out-deg" 2 job.Gstats.deg100;
  check_bool "job is source" true job.Gstats.is_source

let test_gstats_percentiles_match_stats () =
  let g, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let degrees = Graph.out_degrees_of_type g 0 in
  check_int "p50 agrees"
    (Kaskade_util.Stats.percentile degrees 50.0)
    (Gstats.out_degree_percentile stats ~vtype:0 ~alpha:50.0)

let test_gstats_means () =
  let g, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  Alcotest.(check (float 1e-9)) "job mean out-deg" 1.0 (Gstats.out_degree_mean stats ~vtype:0);
  Alcotest.(check (float 1e-9)) "global mean" 1.0 (Gstats.global_out_degree_mean stats)

let test_gstats_etype_counts () =
  let g, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  check_int "writes" 3 (Gstats.edge_type_count stats ~etype:0);
  check_int "reads" 3 (Gstats.edge_type_count stats ~etype:1);
  Alcotest.(check (float 1e-9)) "job writes-only mean" 1.0
    (Gstats.out_degree_mean_for_etypes stats ~vtype:0 ~etypes:[ 0 ])

let test_gstats_sources () =
  let g, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  Alcotest.(check (list int)) "both types are sources" [ 0; 1 ] (Gstats.source_types stats)


(* ------------------------------------------------------------------ *)
(* Gio (serialization)                                                 *)

let graphs_equal a b =
  Graph.n_vertices a = Graph.n_vertices b
  && Graph.n_edges a = Graph.n_edges b
  && begin
       let ok = ref true in
       for v = 0 to Graph.n_vertices a - 1 do
         if Graph.vertex_type_name a v <> Graph.vertex_type_name b v then ok := false;
         if Graph.vertex_props a v <> Graph.vertex_props b v then ok := false
       done;
       Graph.iter_edges a (fun ~eid ~src ~dst ~etype ->
           let s, d = Graph.edge_endpoints b eid in
           if s <> src || d <> dst || Graph.edge_type b eid <> etype then ok := false;
           if Graph.edge_props a eid <> Graph.edge_props b eid then ok := false);
       !ok
     end

let test_gio_roundtrip () =
  let g, _, _ = small_lineage () in
  let back = Gio.of_string (Gio.to_string g) in
  check_bool "roundtrip" true (graphs_equal g back)

let test_gio_special_chars () =
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let v0 = Builder.add_vertex b ~vtype:"V"
      ~props:[ ("weird key", Value.Str "has = and %\nnewline"); ("f", Value.Float 1.5);
               ("neg", Value.Int (-3)); ("t", Value.Bool true); ("nothing", Value.Null) ] () in
  ignore (Builder.add_edge b ~src:v0 ~dst:v0 ~etype:"E" ());
  let g = Graph.freeze b in
  let back = Gio.of_string (Gio.to_string g) in
  check_bool "special chars survive" true (graphs_equal g back)

let test_gio_file_roundtrip () =
  let g, _, _ = small_lineage () in
  let path = Filename.temp_file "kaskade" ".graph" in
  Gio.save g path;
  let back = Gio.load path in
  Sys.remove path;
  check_bool "file roundtrip" true (graphs_equal g back)

let test_gio_bad_magic () =
  check_bool "raises" true
    (try ignore (Gio.of_string "nonsense\n"); false with Gio.Format_error _ -> true)

let test_gio_schema_enforced () =
  (* A file-file edge violates the schema and must be rejected. *)
  let text = "kaskade-graph 1\nvtype Job\nvtype File\netype Job WRITES_TO File\nv 0 File\nv 1 File\ne 0 1 WRITES_TO\n" in
  check_bool "raises" true
    (try ignore (Gio.of_string text); false with Gio.Format_error _ -> true)

let test_gio_load_error_closes_fd () =
  (* A malformed file must not leak its descriptor: [Gio.load] closes
     the channel on the error path, so repeated failing loads leave
     the process fd table unchanged. *)
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let path = Filename.temp_file "kaskade" ".graph" in
    let oc = open_out path in
    output_string oc "nonsense\n";
    close_out oc;
    let before = count_fds () in
    for _ = 1 to 16 do
      try ignore (Gio.load path) with Gio.Format_error _ -> ()
    done;
    let after = count_fds () in
    Sys.remove path;
    check_int "fd count unchanged after failing loads" before after
  end

(* Each malformation is a [Format_error] at the offending line: bad
   integers in ids and values, bad floats, bools and escapes, unknown
   and duplicate types, and a missing magic line. *)
let test_gio_malformed_lines () =
  let header = "kaskade-graph 1\nvtype Job\netype Job E Job\n" in
  let line_of text =
    match Gio.of_string text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Gio.Format_error (_, line) -> line
  in
  List.iter
    (fun (body, line) -> check_int body line (line_of (header ^ body)))
    [ ("v x Job\n", 4);
      ("v 0 Job\ne 0 y E\n", 5);
      ("v 0 Job a=i:zz\n", 4);
      ("v 0 Job a=s:%zz\n", 4);
      ("v 0 Job a=f:q\n", 4);
      ("v 0 Job a=b:maybe\n", 4);
      ("v 0 File\n", 4);
      ("etype Job F File\n", 4);
      ("vtype Job\n", 4);
      ("etype Job E Job\n", 4) ];
  check_int "blank first line" 1 (line_of ("\n" ^ header))

(* [of_string] over mutated [to_string] output of a small prov graph
   — byte flips, truncations, duplicated lines — returns a graph or
   raises [Format_error], and nothing else. *)
let prop_gio_mutations_typed =
  let text =
    Gio.to_string Kaskade_gen.Provenance_gen.(generate { default with jobs = 4; files = 8; seed = 5 })
  in
  let n = String.length text in
  let mutate acc (kind, pos, byte) =
    let m = String.length acc in
    if m = 0 then acc
    else
      let pos = pos mod m in
      match kind with
      | 0 -> String.mapi (fun i c -> if i = pos then Char.chr byte else c) acc
      | 1 -> String.sub acc 0 pos
      | _ ->
        let lines = String.split_on_char '\n' acc in
        let k = pos mod List.length lines in
        String.concat "\n" (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))
  in
  QCheck.Test.make ~name:"Gio.of_string on mutated input raises only Format_error" ~count:500
    QCheck.(list_of_size Gen.(1 -- 3) (triple (0 -- 2) (0 -- (n - 1)) (0 -- 255)))
    (fun muts ->
      let mutated = List.fold_left mutate text muts in
      match Gio.of_string mutated with
      | _ -> true
      | exception Gio.Format_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) mutated)

let prop_gio_roundtrip_random =
  QCheck.Test.make ~name:"Gio roundtrip on random provenance graphs" ~count:20
    QCheck.(pair (5 -- 30) (0 -- 500))
    (fun (jobs, seed) ->
      let g = Kaskade_gen.Provenance_gen.(generate { default with jobs; files = 2 * jobs; seed }) in
      graphs_equal g (Gio.of_string (Gio.to_string g)))


(* ------------------------------------------------------------------ *)
(* Vindex                                                              *)

let test_vindex_lookup () =
  let g, j, _ = small_lineage () in
  let idx = Vindex.create g in
  Alcotest.(check (list int)) "by name" [ j.(1) ] (Vindex.lookup idx ~prop:"name" (Value.Str "j1"));
  Alcotest.(check (list int)) "missing value" [] (Vindex.lookup idx ~prop:"name" (Value.Str "nope"));
  Alcotest.(check (list int)) "missing prop" [] (Vindex.lookup idx ~prop:"ghost" (Value.Str "x"))

let test_vindex_lazy_build () =
  let g, _, _ = small_lineage () in
  let idx = Vindex.create g in
  check_int "no builds yet" 0 (Vindex.build_count idx);
  ignore (Vindex.lookup idx ~prop:"name" (Value.Str "j0"));
  ignore (Vindex.lookup idx ~prop:"name" (Value.Str "j1"));
  check_int "one build for repeated probes" 1 (Vindex.build_count idx);
  Alcotest.(check (list string)) "indexed" [ "name" ] (Vindex.indexed_props idx)

let test_vindex_multi_match () =
  let g, j, _ = small_lineage () in
  let idx = Vindex.create g in
  (* CPU 20.0 belongs only to j1; CPU values are per-vertex here, but
     shared values must return every holder. *)
  Alcotest.(check (list int)) "float key" [ j.(1) ]
    (Vindex.lookup idx ~prop:"CPU" (Value.Float 20.0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_csr_roundtrip; prop_typed_iteration_matches_filter_scan; prop_gio_roundtrip_random;
      prop_gio_mutations_typed ]

let () =
  Alcotest.run "kaskade_graph"
    [
      ( "value",
        [
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "truthiness" `Quick test_value_truthiness;
          Alcotest.test_case "division by zero" `Quick test_value_div_by_zero;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
          Alcotest.test_case "unknown endpoint rejected" `Quick test_schema_unknown_endpoint;
          Alcotest.test_case "edges_from / between" `Quick test_schema_edges_from;
          Alcotest.test_case "homogeneity" `Quick test_schema_homogeneous;
          Alcotest.test_case "restrict" `Quick test_schema_restrict;
          Alcotest.test_case "add_edge_type" `Quick test_schema_add_edge_type;
        ] );
      ( "builder",
        [
          Alcotest.test_case "domain/range enforced" `Quick test_builder_domain_range;
          Alcotest.test_case "unknown types rejected" `Quick test_builder_unknown_types;
          Alcotest.test_case "endpoint range" `Quick test_builder_out_of_range;
        ] );
      ( "graph",
        [
          Alcotest.test_case "counts" `Quick test_graph_counts;
          Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
          Alcotest.test_case "degree sums" `Quick test_graph_degree_sum;
          Alcotest.test_case "edge endpoints" `Quick test_graph_edge_endpoints;
          Alcotest.test_case "typed iteration" `Quick test_graph_iter_etype;
          Alcotest.test_case "segmented CSR + scratch BFS" `Quick
            test_graph_segmented_vs_filter_scan;
          Alcotest.test_case "properties" `Quick test_graph_props;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "restrict vertices" `Quick test_subgraph_restrict_vertices;
          Alcotest.test_case "props copied" `Quick test_subgraph_restrict_props_copied;
          Alcotest.test_case "edge prefix" `Quick test_subgraph_edge_prefix;
          Alcotest.test_case "edge filter" `Quick test_subgraph_edge_filter;
        ] );
      ( "gstats",
        [
          Alcotest.test_case "summary" `Quick test_gstats_summary;
          Alcotest.test_case "percentiles agree with Stats" `Quick test_gstats_percentiles_match_stats;
          Alcotest.test_case "means" `Quick test_gstats_means;
          Alcotest.test_case "edge type counts" `Quick test_gstats_etype_counts;
          Alcotest.test_case "source types" `Quick test_gstats_sources;
        ] );
      ( "vindex",
        [
          Alcotest.test_case "lookup" `Quick test_vindex_lookup;
          Alcotest.test_case "lazy build" `Quick test_vindex_lazy_build;
          Alcotest.test_case "typed keys" `Quick test_vindex_multi_match;
        ] );
      ( "gio",
        [
          Alcotest.test_case "roundtrip" `Quick test_gio_roundtrip;
          Alcotest.test_case "special characters" `Quick test_gio_special_chars;
          Alcotest.test_case "file roundtrip" `Quick test_gio_file_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_gio_bad_magic;
          Alcotest.test_case "malformed lines are typed" `Quick test_gio_malformed_lines;
          Alcotest.test_case "schema enforced" `Quick test_gio_schema_enforced;
          Alcotest.test_case "failed load leaks no fd" `Quick test_gio_load_error_closes_fd;
        ] );
      ("properties", qcheck_cases);
    ]
