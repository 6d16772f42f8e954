(* The live-update subsystem end to end: Graph.Overlay merged reads
   and compaction, batched incremental view maintenance vs full
   re-materialization (property-tested over three generators), the
   catalog freshness state machine, and the facade's guarantee that a
   query is never answered from a stale view. *)

open Kaskade_graph
open Kaskade_views
module K = Kaskade
module Executor = Kaskade_exec.Executor
module Row = Kaskade_exec.Row
module Overlay = Graph.Overlay
module Mutate = Kaskade_gen.Mutate

let qok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected facade error: %s" (K.Error.to_string e)

let krun ks q = qok (K.query ks q)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let prov_schema = Kaskade_gen.Provenance_gen.schema

(* j0 writes f0, f0 read by j1; j1 writes f1. *)
let tiny () =
  let b = Builder.create prov_schema in
  let j = Array.init 2 (fun i ->
      Builder.add_vertex b ~vtype:"Job"
        ~props:[ ("name", Value.Str (Printf.sprintf "j%d" i)); ("CPU", Value.Float 10.0) ] ())
  in
  let f = Array.init 2 (fun i ->
      Builder.add_vertex b ~vtype:"File" ~props:[ ("name", Value.Str (Printf.sprintf "f%d" i)) ] ())
  in
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:f.(0) ~dst:j.(1) ~etype:"IS_READ_BY" ());
  ignore (Builder.add_edge b ~src:j.(1) ~dst:f.(1) ~etype:"WRITES_TO" ());
  (Graph.freeze b, j, f)

(* ------------------------------------------------------------------ *)
(* Overlay: merged reads                                               *)

let test_overlay_insert_edge () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  check_int "clean version" 0 (Overlay.version o);
  check_int "clean edges" 3 (Overlay.n_edges o);
  check_bool "clean snapshot is base" true (Overlay.graph o == g);
  Overlay.insert_edge o ~src:f.(1) ~dst:j.(0) ~etype:"IS_READ_BY" ();
  check_int "version bumped" 1 (Overlay.version o);
  check_int "merged edges" 4 (Overlay.n_edges o);
  check_int "merged out degree" 1 (Overlay.out_degree o f.(1));
  check_int "merged in degree" 1 (Overlay.in_degree o j.(0));
  let ety = Schema.edge_type_id prov_schema "IS_READ_BY" in
  check_int "typed out degree" 1 (Overlay.typed_out_degree o f.(1) ~etype:ety);
  let seen = ref [] in
  Overlay.iter_out_etype o f.(1) ~etype:ety (fun ~dst ~eid:_ -> seen := dst :: !seen);
  Alcotest.(check (list int)) "pending edge visible" [ j.(0) ] !seen

let test_overlay_insert_vertex () =
  let g, _, _ = tiny () in
  let o = Overlay.create g in
  let v = Overlay.insert_vertex o ~vtype:"File" ~props:[ ("name", Value.Str "fresh") ] () in
  check_int "id is old n" (Graph.n_vertices g) v;
  check_int "merged count" (Graph.n_vertices g + 1) (Overlay.n_vertices o);
  check_string "type readable" "File" (Overlay.vertex_type_name o v);
  check_bool "props readable" true (Overlay.vprop_or_null o v "name" = Value.Str "fresh");
  let snap = Overlay.graph o in
  check_string "survives snapshot" "File" (Graph.vertex_type_name snap v)

let test_overlay_delete_multiset () =
  let g, j, f = tiny () in
  let b = Builder.create prov_schema in
  for v = 0 to Graph.n_vertices g - 1 do
    ignore (Builder.add_vertex b ~vtype:(Graph.vertex_type_name g v) ~props:(Graph.vertex_props g v) ())
  done;
  Graph.iter_edges g (fun ~eid:_ ~src ~dst ~etype ->
      ignore (Builder.add_edge b ~src ~dst ~etype:(Schema.edge_type_name prov_schema etype) ()));
  (* A parallel duplicate of j0 -> f0. *)
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO" ());
  let g = Graph.freeze b in
  let o = Overlay.create g in
  check_bool "first delete" true (Overlay.delete_edge o ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO");
  check_int "one instance left" 3 (Overlay.n_edges o);
  check_bool "second delete" true (Overlay.delete_edge o ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO");
  check_bool "third delete fails" false
    (Overlay.delete_edge o ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO");
  check_int "failed delete does not bump version" 2 (Overlay.version o)

let test_overlay_delete_consumes_pending () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  Overlay.insert_edge o ~src:f.(1) ~dst:j.(0) ~etype:"IS_READ_BY" ();
  check_int "pending" 1 (Overlay.pending_edges o);
  check_bool "delete hits pending" true (Overlay.delete_edge o ~src:f.(1) ~dst:j.(0) ~etype:"IS_READ_BY");
  check_int "pending gone" 0 (Overlay.pending_edges o);
  check_int "no base tombstone" 0 (Overlay.deleted_edges o);
  check_int "back to base size" 3 (Overlay.n_edges o)

let test_overlay_apply_effective () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  let ops =
    [
      Overlay.Insert_edge { src = f.(1); dst = j.(0); etype = "IS_READ_BY"; props = [] };
      Overlay.Delete_edge { src = f.(1); dst = j.(1); etype = "IS_READ_BY" } (* no instance *);
      Overlay.Delete_edge { src = j.(1); dst = f.(1); etype = "WRITES_TO" };
    ]
  in
  let effective = Overlay.apply o ops in
  check_int "failed delete dropped" 2 (List.length effective);
  check_int "net edges" 3 (Overlay.n_edges o)

let test_overlay_schema_checks () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "unknown etype" true (raises (fun () ->
      Overlay.insert_edge o ~src:j.(0) ~dst:f.(0) ~etype:"NOPE" ()));
  check_bool "domain violation" true (raises (fun () ->
      Overlay.insert_edge o ~src:f.(0) ~dst:f.(1) ~etype:"WRITES_TO" ()));
  check_bool "out of range" true (raises (fun () ->
      Overlay.insert_edge o ~src:999 ~dst:f.(0) ~etype:"WRITES_TO" ()));
  check_bool "unknown vtype" true (raises (fun () ->
      ignore (Overlay.insert_vertex o ~vtype:"Ghost" ())));
  check_int "nothing applied" 0 (Overlay.version o)

(* Merged reads must agree with the frozen snapshot on every vertex. *)
let prop_overlay_merged_equals_snapshot =
  QCheck.Test.make ~name:"overlay merged reads = frozen snapshot" ~count:25
    QCheck.(pair (5 -- 30) (0 -- 1000))
    (fun (jobs, seed) ->
      let g =
        Kaskade_gen.Provenance_gen.(
          generate { default with jobs; files = 2 * jobs; seed = seed + 3 })
      in
      let o = Overlay.create g in
      ignore (Overlay.apply o (Mutate.random_ops ~inserts:12 ~deletes:12 ~seed:(seed + 5) g));
      ignore (Overlay.insert_vertex o ~vtype:"File" ~props:[ ("name", Value.Str "nv") ] ());
      let snap = Overlay.graph o in
      Overlay.n_vertices o = Graph.n_vertices snap
      && Overlay.n_edges o = Graph.n_edges snap
      && begin
        let ok = ref true in
        for v = 0 to Overlay.n_vertices o - 1 do
          let merged = ref [] and frozen = ref [] in
          Overlay.iter_out o v (fun ~dst ~etype ~eid:_ -> merged := (dst, etype) :: !merged);
          Graph.iter_out snap v (fun ~dst ~etype ~eid:_ -> frozen := (dst, etype) :: !frozen);
          if List.sort compare !merged <> List.sort compare !frozen then ok := false;
          let merged_in = ref [] and frozen_in = ref [] in
          Overlay.iter_in o v (fun ~src ~etype ~eid:_ -> merged_in := (src, etype) :: !merged_in);
          Graph.iter_in snap v (fun ~src ~etype ~eid:_ -> frozen_in := (src, etype) :: !frozen_in);
          if List.sort compare !merged_in <> List.sort compare !frozen_in then ok := false;
          if Overlay.out_degree o v <> Graph.out_degree snap v then ok := false;
          if Overlay.vertex_props o v <> Graph.vertex_props snap v then ok := false
        done;
        !ok
      end)

let test_overlay_compact () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  Overlay.insert_edge o ~src:f.(1) ~dst:j.(0) ~etype:"IS_READ_BY" ();
  let nv = Overlay.insert_vertex o ~vtype:"File" ~props:[ ("name", Value.Str "fc") ] () in
  ignore (Overlay.delete_edge o ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO");
  let before = Gio.to_string (Overlay.graph o) in
  let version = Overlay.version o in
  check_bool "needs compact at tiny threshold" true (Overlay.needs_compact ~threshold:0.1 o);
  let new_base = Overlay.compact o in
  check_bool "base advanced" true (Overlay.base o == new_base);
  check_string "content preserved byte for byte" before (Gio.to_string new_base);
  check_int "version preserved" version (Overlay.version o);
  check_int "overlay drained" 0 (Overlay.pending_ops o);
  check_string "vertex ids stable" "fc" (match Graph.vprop new_base nv "name" with
    | Some (Value.Str s) -> s
    | _ -> "?");
  check_bool "second compact is a no-op" true (Overlay.compact o == new_base)

let test_overlay_maybe_compact () =
  let g, j, f = tiny () in
  let o = Overlay.create g in
  check_bool "clean: no" false (Overlay.maybe_compact o);
  Overlay.insert_edge o ~src:f.(1) ~dst:j.(0) ~etype:"IS_READ_BY" ();
  (* 1 pending op over 3 base edges = 0.33 > 0.25 default. *)
  check_bool "ratio over threshold" true (Overlay.overlay_ratio o > 0.25);
  check_bool "compacts" true (Overlay.maybe_compact o);
  check_int "drained" 0 (Overlay.pending_ops o)

(* Queries through a live executor context = queries on the frozen
   snapshot. *)
let prop_overlay_query_equivalence =
  QCheck.Test.make ~name:"live executor ctx = frozen snapshot ctx" ~count:15
    QCheck.(pair (8 -- 30) (0 -- 1000))
    (fun (jobs, seed) ->
      let g =
        Kaskade_gen.Provenance_gen.(
          generate { default with jobs; files = 2 * jobs; seed = seed + 23 })
      in
      let o = Overlay.create g in
      let live = Executor.create_live o in
      let q =
        Kaskade_query.Qparser.parse
          "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, f, b"
      in
      let run_both () =
        let frozen = Executor.create (Overlay.graph o) in
        match (Executor.run live q, Executor.run frozen q) with
        | Executor.Table a, Executor.Table b -> a = b
        | _ -> false
      in
      let ok_before = run_both () in
      ignore (Overlay.apply o (Mutate.random_ops ~inserts:10 ~deletes:10 ~seed:(seed + 29) g));
      ok_before && run_both ())

(* ------------------------------------------------------------------ *)
(* Batched maintenance = full re-materialization                       *)

(* Result identity for connectors: same kept base vertices, same pair
   multiset in base ids (view-internal ids may legitimately differ:
   the incremental path appends vertices born after materialization at
   the end). *)
let canonical (m : Materialize.materialized) =
  let vg = m.Materialize.graph in
  let o_of_n = Array.make (Graph.n_vertices vg) (-1) in
  Array.iteri (fun old_v nv -> if nv >= 0 then o_of_n.(nv) <- old_v) m.Materialize.new_of_old;
  let vertices = ref [] in
  Array.iteri
    (fun old_v nv -> if nv >= 0 then vertices := (old_v, Graph.vertex_type_name vg nv) :: !vertices)
    m.Materialize.new_of_old;
  let edges = ref [] in
  Graph.iter_edges vg (fun ~eid:_ ~src ~dst ~etype ->
      edges := (o_of_n.(src), o_of_n.(dst), etype) :: !edges);
  (List.sort compare !vertices, List.sort compare !edges)

(* Byte identity (graph serialization + vertex mapping) for the view
   kinds whose refresh pledges it. *)
let byte_identical (a : Materialize.materialized) (b : Materialize.materialized) =
  Gio.to_string a.Materialize.graph = Gio.to_string b.Materialize.graph
  && a.Materialize.new_of_old = b.Materialize.new_of_old

let refresh_vs_rebuild ~gen ~view ~inserts ~deletes ~compare_kind seed =
  let g = gen seed in
  let m = Materialize.materialize g view in
  let o = Overlay.create g in
  let ops = Overlay.apply o (Mutate.random_ops ~inserts ~deletes ~seed:(seed + 101) g) in
  let base_after = Overlay.graph o in
  let refreshed, strategy = Maintain.refresh base_after ~view:m ~ops in
  let rebuilt = Materialize.materialize base_after view in
  let same =
    match compare_kind with
    | `Canonical -> canonical refreshed = canonical rebuilt
    | `Bytes -> byte_identical refreshed rebuilt
  in
  if not same then
    QCheck.Test.fail_reportf "refresh (%s) diverged from rebuild on seed %d"
      (Maintain.describe_strategy strategy) seed;
  (* These view kinds must never fall back to a rebuild. *)
  Maintain.incremental strategy

let powerlaw seed =
  Kaskade_gen.Powerlaw_gen.(generate { vertices = 100; edges = 320; exponent = 2.2; seed })

let dblp seed =
  Kaskade_gen.Dblp_gen.(generate { default with authors = 50; pubs = 90; venues = 6; seed })

let provenance seed =
  Kaskade_gen.Provenance_gen.(generate { default with jobs = 25; files = 50; seed })

let khop src_type dst_type k = View.Connector (View.K_hop { src_type; dst_type; k })

let maintenance_props =
  let mk name ~gen ~view ~compare_kind =
    QCheck.Test.make ~name ~count:20
      QCheck.(0 -- 10_000)
      (fun seed ->
        refresh_vs_rebuild ~gen ~view ~inserts:10 ~deletes:10 ~compare_kind (seed + 1))
  in
  [
    mk "powerlaw k=2 connector refresh = rebuild" ~gen:powerlaw ~view:(khop "V" "V" 2)
      ~compare_kind:`Canonical;
    mk "powerlaw k=3 connector refresh = rebuild" ~gen:powerlaw ~view:(khop "V" "V" 3)
      ~compare_kind:`Canonical;
    mk "dblp k=2 connector refresh = rebuild" ~gen:dblp ~view:(khop "Author" "Author" 2)
      ~compare_kind:`Canonical;
    mk "dblp k=3 connector refresh = rebuild" ~gen:dblp ~view:(khop "Pub" "Author" 3)
      ~compare_kind:`Canonical;
    mk "provenance k=2 connector refresh = rebuild" ~gen:provenance ~view:(khop "Job" "Job" 2)
      ~compare_kind:`Canonical;
    mk "provenance k=3 connector refresh = rebuild" ~gen:provenance ~view:(khop "Job" "File" 3)
      ~compare_kind:`Canonical;
    mk "provenance filter refresh = rebuild (bytes)" ~gen:provenance
      ~view:(View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ]))
      ~compare_kind:`Bytes;
    mk "dblp filter refresh = rebuild (bytes)" ~gen:dblp
      ~view:(View.Summarizer (View.Vertex_inclusion [ "Author"; "Pub" ]))
      ~compare_kind:`Bytes;
  ]

(* ------------------------------------------------------------------ *)
(* Freshness state machine                                             *)

let test_freshness_transitions () =
  let g, j, f = tiny () in
  let cat = Catalog.create () in
  Catalog.add cat (Materialize.materialize g (khop "Job" "Job" 2));
  let entry = Option.get (Catalog.find_by_name cat "JOB_TO_JOB_2HOP") in
  check_string "starts fresh" "fresh" (Catalog.freshness_label entry.Catalog.freshness);
  let op1 = Overlay.Insert_edge { src = f.(1); dst = j.(0); etype = "IS_READ_BY"; props = [] } in
  let op2 = Overlay.Delete_edge { src = j.(0); dst = f.(0); etype = "WRITES_TO" } in
  Catalog.mark_stale cat [ op1 ];
  check_string "stale after mark" "stale(1 ops)" (Catalog.freshness_label entry.Catalog.freshness);
  Catalog.mark_stale cat [ op2 ];
  (match entry.Catalog.freshness with
  | Catalog.Stale [ o1; o2 ] -> check_bool "delta appends in order" true (o1 = op1 && o2 = op2)
  | _ -> Alcotest.fail "expected Stale with two ops");
  check_int "n_stale" 1 (Catalog.n_stale cat);
  let pending = Catalog.begin_refresh entry in
  check_int "pending handed over" 2 (List.length pending);
  check_string "rebuilding" "rebuilding" (Catalog.freshness_label entry.Catalog.freshness);
  check_bool "mark_stale refuses mid-refresh" true
    (try Catalog.mark_stale cat [ op1 ]; false with Invalid_argument _ -> true);
  check_bool "double begin refuses" true
    (try ignore (Catalog.begin_refresh entry); false with Invalid_argument _ -> true);
  Catalog.finish_refresh cat entry (Materialize.materialize g (khop "Job" "Job" 2));
  let entry' = Option.get (Catalog.find_by_name cat "JOB_TO_JOB_2HOP") in
  check_string "fresh again" "fresh" (Catalog.freshness_label entry'.Catalog.freshness);
  check_int "nothing stale" 0 (Catalog.n_stale cat);
  check_int "begin_refresh on fresh is empty" 0 (List.length (Catalog.begin_refresh entry'))

(* ------------------------------------------------------------------ *)
(* Facade: updates, staleness, never-stale answers                     *)

let coauthor_query = K.parse "MATCH (a:Author)-[r*2..2]->(b:Author) RETURN a, b"

let mid_dblp () = Kaskade_gen.Dblp_gen.(generate { default with authors = 40; pubs = 70; venues = 5; seed = 7 })

(* Vertex ids are view-internal; canonicalize rows through the graph
   the answer was computed on. *)
let canon_result ks (res, how) =
  let g =
    match how with
    | K.Raw -> K.graph ks
    | K.Via_view n ->
      (Option.get (Catalog.find_by_name (K.catalog ks) n)).Catalog.materialized.Materialize.graph
  in
  let rval = function
    | Row.V v -> Graph.vprop_or_null g v "name"
    | Row.E _ -> Value.Null
    | Row.Prim p -> p
  in
  match res with
  | Executor.Table t ->
    List.sort compare (List.map (fun r -> Array.to_list (Array.map rval r)) t.Row.rows)
  | Executor.Affected n -> [ [ Value.Int n ] ]

let test_facade_stale_views_refused () =
  let ks = K.make ~config:{ K.Config.default with auto_refresh = false } (mid_dblp ()) in
  ignore (K.materialize ks (khop "Author" "Author" 2));
  let _, how = krun ks coauthor_query in
  check_bool "fresh view answers" true (how = K.Via_view "AUTHOR_TO_AUTHOR_2HOP");
  let authors = Graph.vertices_of_type_name (K.graph ks) "Author" in
  let pubs = Graph.vertices_of_type_name (K.graph ks) "Pub" in
  K.Update.batch
    [ K.Update.Insert_edge { src = authors.(0); dst = pubs.(0); etype = "AUTHORED"; props = [] } ]
    ks;
  (match K.Update.freshness ks with
  | [ (name, Catalog.Stale [ _ ]) ] -> check_string "stale entry" "AUTHOR_TO_AUTHOR_2HOP" name
  | _ -> Alcotest.fail "expected one stale entry");
  (* Stale view must not answer; without auto-refresh the base graph does. *)
  let _, how = krun ks coauthor_query in
  check_bool "stale view passed over" true (how = K.Raw);
  check_bool "targeting the stale view is a typed planning error" true
    (match K.query ~target:(K.View "AUTHOR_TO_AUTHOR_2HOP") ks coauthor_query with
    | Error (K.Error.Plan _) -> true
    | _ -> false);
  (* EXPLAIN reports the freshness and the repair strategy, read-only. *)
  let r = K.explain ks coauthor_query in
  check_bool "explain targets base" true (r.K.target = K.Raw);
  (match r.K.candidates with
  | [ c ] ->
    check_bool "candidate not priced" true (c.K.cand_cost = None);
    check_string "candidate freshness" "stale(1 ops)" (Catalog.freshness_label c.K.cand_freshness);
    check_bool "refresh decision surfaced" true
      (match c.K.cand_refresh with Some s -> String.length s > 0 | None -> false)
  | _ -> Alcotest.fail "expected one candidate");
  check_bool "explain did not repair" true (Catalog.n_stale (K.catalog ks) = 1);
  (* Manual refresh repairs incrementally and the view answers again. *)
  (match K.Update.refresh_views ks with
  | [ o ] ->
    check_string "refreshed view" "AUTHOR_TO_AUTHOR_2HOP" o.K.refreshed_view;
    check_bool "incremental" true (Maintain.incremental o.K.refresh_strategy);
    check_int "ops absorbed" 1 o.K.refresh_ops
  | _ -> Alcotest.fail "expected one refresh outcome");
  let _, how = krun ks coauthor_query in
  check_bool "view answers again" true (how = K.Via_view "AUTHOR_TO_AUTHOR_2HOP")

let test_facade_auto_refresh () =
  let ks = K.make (mid_dblp ()) in
  ignore (K.materialize ks (khop "Author" "Author" 2));
  let authors = Graph.vertices_of_type_name (K.graph ks) "Author" in
  let pubs = Graph.vertices_of_type_name (K.graph ks) "Pub" in
  K.Update.batch
    [ K.Update.Insert_edge { src = authors.(1); dst = pubs.(1); etype = "AUTHORED"; props = [] };
      K.Update.Insert_edge { src = pubs.(1); dst = authors.(1); etype = "HAS_AUTHOR"; props = [] } ]
    ks;
  check_int "stale before run" 1 (Catalog.n_stale (K.catalog ks));
  let res, how = krun ks coauthor_query in
  check_bool "repaired then answered from view" true (how = K.Via_view "AUTHOR_TO_AUTHOR_2HOP");
  check_int "fresh after run" 0 (Catalog.n_stale (K.catalog ks));
  (* The repaired answer matches a facade built from scratch on the
     updated graph. *)
  let ks2 = K.make (K.graph ks) in
  ignore (K.materialize ks2 (khop "Author" "Author" 2));
  let res2 = krun ks2 coauthor_query in
  check_bool "same rows as scratch facade" true
    (canon_result ks (res, how) = canon_result ks2 res2);
  (* PROFILE surfaces repairs it performed. *)
  K.Update.batch [ K.Update.Delete_edge { src = authors.(1); dst = pubs.(1); etype = "AUTHORED" } ] ks;
  let _, report = K.profile ks coauthor_query in
  check_int "profile reports its repair" 1 (List.length report.K.refreshes)

(* A 1k mixed batch on a DBLP graph with a connector + filter catalog;
   every view byte/result-identical to full re-materialization and
   every query answer identical to a from-scratch facade. *)
let test_facade_1k_batch_identity () =
  let g = Kaskade_gen.Dblp_gen.(generate { default with authors = 150; pubs = 260; venues = 8; seed = 41 }) in
  let connector = khop "Author" "Author" 2 in
  let filter = View.Summarizer (View.Vertex_inclusion [ "Author"; "Pub" ]) in
  let ks = K.make g in
  ignore (K.materialize ks connector);
  ignore (K.materialize ks filter);
  let ops = Mutate.random_ops ~inserts:500 ~deletes:500 ~seed:97 g in
  check_int "1k batch" 1000 (List.length ops);
  K.Update.batch ops ks;
  let outcomes = K.Update.refresh_views ks in
  check_int "both views refreshed" 2 (List.length outcomes);
  let base_after = K.graph ks in
  let check_entry view ~bytes =
    let entry = Option.get (Catalog.find (K.catalog ks) view) in
    let rebuilt = Materialize.materialize base_after view in
    if bytes then
      check_bool (View.name view ^ " byte-identical") true
        (byte_identical entry.Catalog.materialized rebuilt)
    else
      check_bool (View.name view ^ " result-identical") true
        (canonical entry.Catalog.materialized = canonical rebuilt)
  in
  check_entry connector ~bytes:false;
  check_entry filter ~bytes:true;
  (* Query identity vs a facade built from scratch on the new graph. *)
  let ks2 = K.make base_after in
  ignore (K.materialize ks2 connector);
  ignore (K.materialize ks2 filter);
  let a = krun ks coauthor_query and b = krun ks2 coauthor_query in
  check_bool "query rows identical" true (canon_result ks a = canon_result ks2 b);
  check_bool "all fresh at the end" true
    (List.for_all (fun (_, f) -> f = Catalog.Fresh) (K.Update.freshness ks))

let () =
  let qsuite = List.map (QCheck_alcotest.to_alcotest ~verbose:false) in
  Alcotest.run "update"
    [
      ( "overlay",
        [
          Alcotest.test_case "insert edge merged reads" `Quick test_overlay_insert_edge;
          Alcotest.test_case "insert vertex" `Quick test_overlay_insert_vertex;
          Alcotest.test_case "delete multiset semantics" `Quick test_overlay_delete_multiset;
          Alcotest.test_case "delete consumes pending" `Quick test_overlay_delete_consumes_pending;
          Alcotest.test_case "apply returns effective ops" `Quick test_overlay_apply_effective;
          Alcotest.test_case "schema checks" `Quick test_overlay_schema_checks;
          Alcotest.test_case "compact" `Quick test_overlay_compact;
          Alcotest.test_case "maybe_compact" `Quick test_overlay_maybe_compact;
        ] );
      ( "overlay properties",
        qsuite [ prop_overlay_merged_equals_snapshot; prop_overlay_query_equivalence ] );
      ("maintenance properties", qsuite maintenance_props);
      ("freshness", [ Alcotest.test_case "state machine" `Quick test_freshness_transitions ]);
      ( "facade",
        [
          Alcotest.test_case "stale views refused" `Quick test_facade_stale_views_refused;
          Alcotest.test_case "auto refresh" `Quick test_facade_auto_refresh;
          Alcotest.test_case "1k batch identity" `Slow test_facade_1k_batch_identity;
        ] );
    ]
