open Kaskade_graph
open Kaskade_views

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let lineage_schema = Kaskade_gen.Provenance_gen.schema

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
        Builder.add_vertex b ~vtype:"File" ~props:[ ("name", Value.Str (Printf.sprintf "f%d" i)) ] ())
  in
  let t0 = Builder.add_vertex b ~vtype:"Task" ~props:[ ("name", Value.Str "t0") ] () in
  let m0 = Builder.add_vertex b ~vtype:"Machine" ~props:[ ("name", Value.Str "m0") ] () in
  let u0 = Builder.add_vertex b ~vtype:"User" ~props:[ ("name", Value.Str "u0") ] () in
  let edge s d t = ignore (Builder.add_edge b ~src:s ~dst:d ~etype:t ()) in
  edge j.(0) f.(0) "WRITES_TO";
  edge j.(0) f.(1) "WRITES_TO";
  edge f.(0) j.(1) "IS_READ_BY";
  edge f.(1) j.(1) "IS_READ_BY";
  edge f.(1) j.(2) "IS_READ_BY";
  edge j.(2) f.(2) "WRITES_TO";
  edge j.(0) t0 "HAS_TASK";
  edge t0 m0 "RUNS_ON";
  edge u0 j.(0) "SUBMITTED";
  (Graph.freeze b, j, f)

let edge_name_pairs g =
  let out = ref [] in
  Graph.iter_edges g (fun ~eid:_ ~src ~dst ~etype:_ ->
      let n v = match Graph.vprop g v "name" with Some (Value.Str s) -> s | _ -> "?" in
      out := (n src, n dst) :: !out);
  List.sort compare !out

(* ------------------------------------------------------------------ *)
(* View descriptors                                                    *)

let test_view_names () =
  check_string "k-hop name" "JOB_TO_JOB_2HOP"
    (View.name (View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 })));
  check_string "summarizer name" "KEEP_V_FILE_JOB"
    (View.name (View.Summarizer (View.Vertex_inclusion [ "File"; "Job" ])))

let test_view_equality () =
  let a = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) in
  let b = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) in
  let c = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 4 }) in
  check_bool "equal" true (View.compare a b = 0);
  check_bool "distinct" false (View.compare a c = 0)

let test_view_describe () =
  check_bool "describe mentions hops" true
    (String.length (View.describe (View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }))) > 0)

(* ------------------------------------------------------------------ *)
(* k-hop connectors                                                    *)

let test_khop_connector_edges () =
  let g, _, _ = small_lineage () in
  let m = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* Distinct job pairs via job-file-job: (j0,j1), (j0,j2). *)
  Alcotest.(check (list (pair string string)))
    "connector edges"
    [ ("j0", "j1"); ("j0", "j2") ]
    (edge_name_pairs m.Materialize.graph);
  check_int "only jobs" 3 (Graph.n_vertices m.Materialize.graph)

let test_khop_connector_matches_paths_count () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 150; files = 300; seed = 9 }) in
  let m = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  let expected =
    Kaskade_graph.Paths.count_2hop_pairs g
      ~src_type:(Schema.vertex_type_id (Graph.schema g) "Job")
      ~dst_type:(Schema.vertex_type_id (Graph.schema g) "Job")
  in
  check_int "edge count = distinct 2-hop pairs" expected (Graph.n_edges m.Materialize.graph)

let test_khop_path_counts () =
  let g, _, _ = small_lineage () in
  let m =
    Materialize.k_hop_connector ~with_path_counts:true g ~src_type:"Job" ~dst_type:"Job" ~k:2
  in
  let vg = m.Materialize.graph in
  (* (j0,j1) has two contracted paths (via f0 and f1). *)
  let found = ref 0 in
  Graph.iter_edges vg (fun ~eid ~src ~dst ~etype:_ ->
      let n v = match Graph.vprop vg v "name" with Some (Value.Str s) -> s | _ -> "?" in
      if n src = "j0" && n dst = "j1" then begin
        match Graph.eprop vg eid "paths" with
        | Some (Value.Int c) -> found := c
        | _ -> ()
      end);
  check_int "path multiplicity" 2 !found

let test_khop_no_dedupe () =
  let g, _, _ = small_lineage () in
  let m = Materialize.k_hop_connector ~dedupe:false g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* One edge per 2-hop path: 3 paths. *)
  check_int "parallel edges" 3 (Graph.n_edges m.Materialize.graph)

let test_khop_props_copied () =
  let g, j, _ = small_lineage () in
  let m = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  let new_j1 = m.Materialize.new_of_old.(j.(1)) in
  check_bool "CPU copied" true (Graph.vprop m.Materialize.graph new_j1 "CPU" = Some (Value.Float 20.0))

let test_khop_file_to_file () =
  let g, _, _ = small_lineage () in
  let m = Materialize.k_hop_connector g ~src_type:"File" ~dst_type:"File" ~k:2 in
  (* f0->j1->(writes nothing): none; f1->j2->f2. *)
  Alcotest.(check (list (pair string string))) "file connector" [ ("f1", "f2") ]
    (edge_name_pairs m.Materialize.graph)

let test_khop_build_cost_positive () =
  let g, _, _ = small_lineage () in
  let m = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  check_bool "cost counted" true (m.Materialize.build_cost > 0.0)

(* ------------------------------------------------------------------ *)
(* Summarizers                                                         *)

let test_vertex_inclusion () =
  let g, _, _ = small_lineage () in
  let m = Materialize.materialize g (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ])) in
  let vg = m.Materialize.graph in
  check_int "jobs+files" 6 (Graph.n_vertices vg);
  check_int "lineage edges only" 6 (Graph.n_edges vg);
  check_bool "no Task type" false (Schema.has_vertex_type (Graph.schema vg) "Task")

let test_vertex_removal () =
  let g, _, _ = small_lineage () in
  let m =
    Materialize.materialize g
      (View.Summarizer (View.Vertex_removal [ "Task"; "Machine"; "User" ]))
  in
  check_int "same as inclusion" 6 (Graph.n_vertices m.Materialize.graph)

let test_edge_inclusion () =
  let g, _, _ = small_lineage () in
  let m = Materialize.materialize g (View.Summarizer (View.Edge_inclusion [ "WRITES_TO" ])) in
  let vg = m.Materialize.graph in
  check_int "writes only" 3 (Graph.n_edges vg);
  check_int "all vertices kept" 9 (Graph.n_vertices vg)

let test_edge_removal () =
  let g, _, _ = small_lineage () in
  let m = Materialize.materialize g (View.Summarizer (View.Edge_removal [ "SUBMITTED" ])) in
  check_int "one edge dropped" 8 (Graph.n_edges m.Materialize.graph)

(* ------------------------------------------------------------------ *)
(* Defining queries (paper §III-C: a view IS a query)                  *)

(* Executing a connector's defining query must return exactly the
   materialized edge set. *)
let pairs_from_query g src =
  let ctx = Kaskade_exec.Executor.create g in
  let t = Kaskade_exec.Executor.table_exn (Kaskade_exec.Executor.run_string ctx src) in
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

let test_definition_khop_consistent () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 150; files = 300; seed = 21 }) in
  let view = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) in
  let query = Option.get (Definition.defining_query view) in
  let from_query = pairs_from_query g query in
  let m = Materialize.materialize g view in
  Alcotest.(check (list (pair string string)))
    "defining query = materialized edges" from_query
    (List.sort_uniq compare (edge_name_pairs m.Materialize.graph))

let test_definition_unsupported () =
  check_bool "vertex removal has no query" true
    (Definition.defining_query (View.Summarizer (View.Vertex_removal [ "Task" ])) = None);
  check_bool "edge removal has no query" true
    (Definition.defining_query (View.Summarizer (View.Edge_removal [ "SUBMITTED" ])) = None)

let test_definition_summarizer_scans () =
  match Definition.defining_query (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ])) with
  | Some q -> check_bool "two scans" true (List.length (String.split_on_char ';' q) = 2)
  | None -> Alcotest.fail "expected a defining query"

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let test_catalog_roundtrip () =
  let g, _, _ = small_lineage () in
  let cat = Catalog.create () in
  let view = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) in
  check_bool "empty" true (Catalog.find cat view = None);
  Catalog.add cat (Materialize.materialize g view);
  match Catalog.find cat view with
  | Some e -> check_int "size recorded" 2 e.Catalog.size_edges
  | None -> Alcotest.fail "lookup"

let test_catalog_replace () =
  let g, _, _ = small_lineage () in
  let cat = Catalog.create () in
  let view = View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ]) in
  Catalog.add cat (Materialize.materialize g view);
  Catalog.add cat (Materialize.materialize g view);
  check_int "no duplicates" 1 (List.length (Catalog.entries cat))


(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)

(* Apply [ops] through an overlay and return the post-batch graph plus
   the ops that took effect — the inputs [Maintain] expects. *)
let after_batch g ops =
  let o = Graph.Overlay.create g in
  let effective = Graph.Overlay.apply o ops in
  (Graph.Overlay.graph o, effective)

let ins src dst etype = Graph.Overlay.Insert_edge { src; dst; etype; props = [] }
let del src dst etype = Graph.Overlay.Delete_edge { src; dst; etype }

let connector_pairs_by_name vg =
  List.sort_uniq compare (edge_name_pairs vg)

let test_maintain_delta_read_edge () =
  let g, j, f = small_lineage () in
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* New edge: f2 (written by j2) is read by j1 -> new pair (j2, j1). *)
  let base_after, ops = after_batch g [ ins f.(2) j.(1) "IS_READ_BY" ] in
  let d = Maintain.connector_delta base_after ~view ~ops in
  Alcotest.(check (list (pair int int))) "added" [ (j.(2), j.(1)) ] d.Maintain.added;
  Alcotest.(check (list (pair int int))) "removed" [] d.Maintain.removed

let test_maintain_delta_write_edge () =
  let g, j, _f = small_lineage () in
  (* New file written by j1, then nothing reads it yet: the batch
     creates no 2-hop pair. *)
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  let o = Graph.Overlay.create g in
  let f_new = Graph.Overlay.insert_vertex o ~vtype:"File" ~props:[ ("name", Value.Str "f_new") ] () in
  let ops =
    Graph.Overlay.Insert_vertex { vtype = "File"; props = [ ("name", Value.Str "f_new") ] }
    :: Graph.Overlay.apply o [ ins j.(1) f_new "WRITES_TO" ]
  in
  let d = Maintain.connector_delta (Graph.Overlay.graph o) ~view ~ops in
  Alcotest.(check (list (pair int int))) "no new pairs" [] d.Maintain.added

let test_maintain_apply_matches_rebuild () =
  let g, _j, f = small_lineage () in
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  let base_after, ops = after_batch g [ ins f.(2) 0 (* j0 reads f2 *) "IS_READ_BY" ] in
  let incremental, strategy = Maintain.refresh base_after ~view ~ops in
  check_bool "incremental strategy" true (Maintain.incremental strategy);
  let rebuilt = Materialize.k_hop_connector base_after ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  Alcotest.(check (list (pair string string)))
    "incremental = rebuild"
    (connector_pairs_by_name rebuilt.Materialize.graph)
    (connector_pairs_by_name incremental.Materialize.graph)

(* A view's vertex set and edge list keyed by base-graph vertex ids:
   equal for two materializations of one view even when they number
   view vertices differently. *)
let canonical_view (m : Materialize.materialized) =
  let vg = m.Materialize.graph in
  let o_of_n = Array.make (Graph.n_vertices vg) (-1) in
  Array.iteri (fun old_v nv -> if nv >= 0 then o_of_n.(nv) <- old_v) m.Materialize.new_of_old;
  let edges = ref [] in
  Graph.iter_edges vg (fun ~eid:_ ~src ~dst ~etype ->
      edges := (o_of_n.(src), o_of_n.(dst), etype) :: !edges);
  ( List.sort compare
      (Array.to_list (Array.mapi (fun old_v nv -> (old_v, nv >= 0)) m.Materialize.new_of_old)),
    List.sort compare !edges )

(* Incremental refresh against a full re-materialization on a seeded
   fixture: the 2-hop Job connector over summarized prov (400 jobs,
   800 files, seed 5), compared with [canonical_view] because the
   incremental path may number appended vertices differently. Batches
   of 1, 16 and 64 random ops (seed 1000 + batch); every refresh must
   also stay incremental. *)
let test_maintain_refresh_equals_rebuild_fixtures () =
  let g =
    (Materialize.materialize
       Kaskade_gen.Provenance_gen.(generate { default with jobs = 400; files = 800; seed = 5 })
       (View.Summarizer (View.Vertex_inclusion Kaskade_gen.Provenance_gen.summarized_types)))
      .Materialize.graph
  in
  let view = View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) in
  let m = Materialize.materialize g view in
  List.iter
    (fun batch ->
      let base_after, ops =
        after_batch g
          (Kaskade_gen.Mutate.random_ops ~inserts:((batch + 1) / 2) ~deletes:(batch / 2)
             ~seed:(1000 + batch) g)
      in
      let refreshed, strategy = Maintain.refresh base_after ~view:m ~ops in
      let what =
        Printf.sprintf "connector k=2 (prov) batch=%d (%s)" batch (Maintain.describe_strategy strategy)
      in
      check_bool (what ^ ": incremental") true (Maintain.incremental strategy);
      check_bool (what ^ ": refresh = rebuild") true
        (canonical_view refreshed = canonical_view (Materialize.materialize base_after view)))
    [ 1; 16; 64 ]

let test_maintain_rejects_other_views () =
  let g, _, _ = small_lineage () in
  let view = Materialize.materialize g (View.Summarizer (View.Vertex_inclusion [ "Job" ])) in
  check_bool "raises" true
    (try
       ignore (Maintain.connector_delta g ~view ~ops:[]);
       false
     with Invalid_argument _ -> true)

(* A connector carrying path counts is the one view maintenance
   cannot delta: its plan is a flagged full rebuild. *)
let test_maintain_path_counts_rebuild () =
  let g, j, _ = small_lineage () in
  let view =
    Materialize.k_hop_connector ~with_path_counts:true g ~src_type:"Job" ~dst_type:"Job" ~k:2
  in
  let base_after, ops = after_batch g [ del j.(0) j.(1) "WRITES_TO" ] in
  ignore base_after;
  match Maintain.plan g ~view ~ops with
  | Maintain.Full_rebuild _ -> ()
  | s -> Alcotest.failf "expected Full_rebuild, got %s" (Maintain.describe_strategy s)

(* Deletion maintenance. *)

let test_maintain_delete_unsupported_pair () =
  let g, j, f = small_lineage () in
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* Deleting f1 -> j2 (the only read of f1 by j2) kills (j0, j2);
     (j0, j1) survives via f0. *)
  let base_after, ops = after_batch g [ del f.(1) j.(2) "IS_READ_BY" ] in
  let d = Maintain.connector_delta base_after ~view ~ops in
  Alcotest.(check (list (pair int int))) "pair dies" [ (j.(0), j.(2)) ] d.Maintain.removed;
  Alcotest.(check (list (pair int int))) "nothing added" [] d.Maintain.added

let test_maintain_delete_supported_pair () =
  let g, j, f = small_lineage () in
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* Deleting f0 -> j1 leaves (j0, j1) supported via f1. *)
  let base_after, ops = after_batch g [ del f.(0) j.(1) "IS_READ_BY" ] in
  ignore j;
  let d = Maintain.connector_delta base_after ~view ~ops in
  Alcotest.(check (list (pair int int))) "no removals" [] d.Maintain.removed

let test_maintain_apply_delete_matches_rebuild () =
  let g, _, f = small_lineage () in
  let view = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  (* Victim edge: f1 -> j2 (j2 is vertex 2 in builder order). *)
  let base_after, ops = after_batch g [ del f.(1) 2 "IS_READ_BY" ] in
  check_int "delete took effect" 1 (List.length ops);
  let incremental, _ = Maintain.refresh base_after ~view ~ops in
  let rebuilt = Materialize.k_hop_connector base_after ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  Alcotest.(check (list (pair string string)))
    "delete incremental = rebuild"
    (connector_pairs_by_name rebuilt.Materialize.graph)
    (connector_pairs_by_name incremental.Materialize.graph)

let prop_maintain_delete_matches_rebuild =
  QCheck.Test.make ~name:"incremental delete = full rebuild" ~count:30
    QCheck.(pair (5 -- 40) (0 -- 1000))
    (fun (jobs, seed) ->
      let g0 =
        Kaskade_gen.Provenance_gen.(
          generate { default with jobs; files = 2 * jobs; seed = seed + 11 })
      in
      let keep =
        (Materialize.materialize g0 (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ])))
          .Materialize.graph
      in
      let m = Graph.n_edges keep in
      if m = 0 then true
      else begin
        let rng = Kaskade_util.Prng.create (seed + 17) in
        let victim = Kaskade_util.Prng.int rng m in
        let s, d = Graph.edge_endpoints keep victim in
        let ename = Schema.edge_type_name (Graph.schema keep) (Graph.edge_type keep victim) in
        let view = Materialize.k_hop_connector keep ~src_type:"Job" ~dst_type:"Job" ~k:2 in
        let base_after, ops = after_batch keep [ del s d ename ] in
        let incremental, _ = Maintain.refresh base_after ~view ~ops in
        let rebuilt =
          Materialize.k_hop_connector base_after ~src_type:"Job" ~dst_type:"Job" ~k:2
        in
        connector_pairs_by_name rebuilt.Materialize.graph
        = connector_pairs_by_name incremental.Materialize.graph
      end)

(* Property: for random lineage graphs and a random new read edge,
   incremental apply equals full rebuild. *)
let prop_maintain_matches_rebuild =
  QCheck.Test.make ~name:"incremental maintenance = full rebuild" ~count:30
    QCheck.(pair (5 -- 40) (0 -- 1000))
    (fun (jobs, seed) ->
      let g =
        Kaskade_gen.Provenance_gen.(
          generate { default with jobs; files = 2 * jobs; seed = seed + 7 })
      in
      let keep =
        (Materialize.materialize g (View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ])))
          .Materialize.graph
      in
      let rng = Kaskade_util.Prng.create (seed + 13) in
      let files = Graph.vertices_of_type_name keep "File" in
      let jobs_arr = Graph.vertices_of_type_name keep "Job" in
      let src = Kaskade_util.Prng.choose rng files in
      let dst = Kaskade_util.Prng.choose rng jobs_arr in
      let view = Materialize.k_hop_connector keep ~src_type:"Job" ~dst_type:"Job" ~k:2 in
      let base_after, ops = after_batch keep [ ins src dst "IS_READ_BY" ] in
      let incremental, _ = Maintain.refresh base_after ~view ~ops in
      let rebuilt = Materialize.k_hop_connector base_after ~src_type:"Job" ~dst_type:"Job" ~k:2 in
      connector_pairs_by_name rebuilt.Materialize.graph
      = connector_pairs_by_name incremental.Materialize.graph)

(* Property: on random lineage graphs, the 2-hop connector edge count
   equals the brute-force distinct-pair count. *)
let prop_khop_matches_bruteforce =
  QCheck.Test.make ~name:"2-hop connector = brute-force pairs" ~count:25
    QCheck.(pair (10 -- 60) (0 -- 300))
    (fun (jobs, seed) ->
      let g =
        Kaskade_gen.Provenance_gen.(
          generate { default with jobs; files = 2 * jobs; seed = seed + 1 })
      in
      let m = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
      let brute = ref 0 in
      let job_ty = Schema.vertex_type_id (Graph.schema g) "Job" in
      Array.iter
        (fun u ->
          let seen = Hashtbl.create 8 in
          Graph.iter_out g u (fun ~dst:mid ~etype:_ ~eid:_ ->
              Graph.iter_out g mid (fun ~dst:w ~etype:_ ~eid:_ ->
                  if Graph.vertex_type g w = job_ty then Hashtbl.replace seen w ()));
          brute := !brute + Hashtbl.length seen)
        (Graph.vertices_of_type g job_ty);
      Graph.n_edges m.Materialize.graph = !brute)

(* ------------------------------------------------------------------ *)
(* Deterministic parallel materialization                              *)

(* Every connector (and the ego summarizer) must serialize
   byte-identically whether materialized on 1, 2 or 4 domains — the
   contract that makes the Pool fan-out transparent to catalogs,
   maintenance and tests. Exercised on all three generator families. *)
let parallel_test_graphs () =
  [ ( "prov",
      Kaskade_gen.Provenance_gen.(generate { default with jobs = 120; files = 240; seed = 5 }),
      View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) );
    ( "prov seed 42",
      Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 }),
      View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }) );
    ( "dblp",
      Kaskade_gen.Dblp_gen.(generate { default with authors = 150; pubs = 250; venues = 12; seed = 6 }),
      View.Connector (View.K_hop { src_type = "Author"; dst_type = "Author"; k = 2 }) );
    ( "powerlaw",
      Kaskade_gen.Powerlaw_gen.(generate { vertices = 200; edges = 800; exponent = 2.2; seed = 8 }),
      View.Connector (View.K_hop { src_type = "V"; dst_type = "V"; k = 2 }) ) ]

let materialize_bytes g view ~domains =
  let pool = Kaskade_util.Pool.create ~domains () in
  Gio.to_string (Materialize.materialize ~pool g view).Materialize.graph

let test_parallel_khop_byte_identical () =
  List.iter
    (fun (name, g, view) ->
      let seq = materialize_bytes g view ~domains:1 in
      List.iter
        (fun d ->
          check_string (Printf.sprintf "%s @%dd" name d) seq (materialize_bytes g view ~domains:d))
        [ 2; 4 ])
    (parallel_test_graphs ())

let test_parallel_gstats_identical () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 100; files = 200; seed = 4 }) in
  let at d =
    let s = Gstats.compute ~pool:(Kaskade_util.Pool.create ~domains:d ()) g in
    ( List.map
        (fun (su : Gstats.type_summary) -> (su.Gstats.type_name, su.Gstats.count, su.Gstats.deg95))
        (Gstats.summaries s),
      List.init (Schema.n_edge_types (Graph.schema g)) (fun t -> Gstats.edge_type_count s ~etype:t) )
  in
  check_bool "gstats identical at any width" true (at 1 = at 4)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_khop_matches_bruteforce; prop_maintain_matches_rebuild; prop_maintain_delete_matches_rebuild ]

let () =
  Alcotest.run "kaskade_views"
    [
      ( "descriptors",
        [
          Alcotest.test_case "names" `Quick test_view_names;
          Alcotest.test_case "equality" `Quick test_view_equality;
          Alcotest.test_case "describe" `Quick test_view_describe;
        ] );
      ( "khop",
        [
          Alcotest.test_case "edges" `Quick test_khop_connector_edges;
          Alcotest.test_case "matches Paths count" `Quick test_khop_connector_matches_paths_count;
          Alcotest.test_case "path counts" `Quick test_khop_path_counts;
          Alcotest.test_case "no dedupe" `Quick test_khop_no_dedupe;
          Alcotest.test_case "props copied" `Quick test_khop_props_copied;
          Alcotest.test_case "file-to-file" `Quick test_khop_file_to_file;
          Alcotest.test_case "build cost" `Quick test_khop_build_cost_positive;
        ] );
      ( "summarizers",
        [
          Alcotest.test_case "vertex inclusion" `Quick test_vertex_inclusion;
          Alcotest.test_case "vertex removal" `Quick test_vertex_removal;
          Alcotest.test_case "edge inclusion" `Quick test_edge_inclusion;
          Alcotest.test_case "edge removal" `Quick test_edge_removal;
        ] );
      ( "maintain",
        [
          Alcotest.test_case "delta on read edge" `Quick test_maintain_delta_read_edge;
          Alcotest.test_case "delta on write edge" `Quick test_maintain_delta_write_edge;
          Alcotest.test_case "apply matches rebuild" `Quick test_maintain_apply_matches_rebuild;
          Alcotest.test_case "rejects other views" `Quick test_maintain_rejects_other_views;
          Alcotest.test_case "aggregator plans a rebuild" `Quick test_maintain_path_counts_rebuild;
          Alcotest.test_case "delete kills unsupported pair" `Quick test_maintain_delete_unsupported_pair;
          Alcotest.test_case "delete keeps supported pair" `Quick test_maintain_delete_supported_pair;
          Alcotest.test_case "delete matches rebuild" `Quick test_maintain_apply_delete_matches_rebuild;
          Alcotest.test_case "refresh = rebuild on seeded fixtures" `Quick
            test_maintain_refresh_equals_rebuild_fixtures;
        ] );
      ( "definition",
        [
          Alcotest.test_case "k-hop defining query" `Quick test_definition_khop_consistent;
          Alcotest.test_case "unsupported views" `Quick test_definition_unsupported;
          Alcotest.test_case "summarizer scans" `Quick test_definition_summarizer_scans;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "roundtrip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "replace" `Quick test_catalog_replace;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "k-hop byte-identical across widths" `Quick
            test_parallel_khop_byte_identical;
          Alcotest.test_case "gstats identical" `Quick test_parallel_gstats_identical;
        ] );
      ("properties", qcheck_cases);
    ]
