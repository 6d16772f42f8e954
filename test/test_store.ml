(* Durability: WAL framing with torn-tail truncation and checksum
   validation, binary snapshots that round-trip the graph and the view
   catalog, crash-atomic text saves, typed I/O errors, and replay
   idempotency through the facade — including batches with duplicated
   delete keys, whose multiset semantics must replay exactly as they
   applied live, and views that answer identically after recovery. *)

open Kaskade_graph
module K = Kaskade
module Wal = Kaskade_store.Wal
module Snapshot = Kaskade_store.Snapshot
module Store = Kaskade_store.Store
module Codec = Kaskade_store.Codec
module Catalog = Kaskade_views.Catalog
module Materialize = Kaskade_views.Materialize
module Metrics = Kaskade_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh scratch directory per test case (removed first in case a
   previous run died mid-test). *)
let tmp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-store-%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  d

let small_graph () =
  Kaskade_gen.Provenance_gen.(generate { default with jobs = 60; files = 120; seed = 5 })

let file_size path = (Unix.stat path).Unix.st_size

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd len;
  Unix.close fd

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let graph_eq what a b = check_string what (Gio.to_string a) (Gio.to_string b)

(* ------------------------------------------------------------------ *)
(* WAL: framing, torn tails, checksums                                 *)

let test_wal_roundtrip () =
  let dir = tmp_dir "wal-rt" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let g = small_graph () in
  let b1 = Kaskade_gen.Mutate.random_ops ~seed:1 g in
  let b2 =
    [ Graph.Overlay.Insert_vertex { vtype = "File"; props = [ ("path", Value.Str "/a") ] } ]
  in
  let w = Wal.open_ ~fsync_policy:Wal.Never path in
  check_int "empty log starts at seq 0" 0 (Wal.last_seq w);
  check_int "first append is seq 1" 1 (Wal.append w b1);
  check_int "second append is seq 2" 2 (Wal.append w b2);
  Wal.close w;
  let records, truncated = Wal.read path in
  check_int "no torn records" 0 truncated;
  (match records with
  | [ (1, r1); (2, r2) ] ->
    check_bool "batch 1 round-trips" true (r1 = b1);
    check_bool "batch 2 round-trips" true (r2 = b2)
  | _ -> Alcotest.fail "expected exactly two records");
  rm_rf dir

let test_wal_torn_tail_truncated () =
  let dir = tmp_dir "wal-torn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let g = small_graph () in
  let batch seed = Kaskade_gen.Mutate.random_ops ~seed g in
  let w = Wal.open_ ~fsync_policy:Wal.Never path in
  ignore (Wal.append w (batch 1));
  ignore (Wal.append w (batch 2));
  ignore (Wal.append w (batch 3));
  Wal.close w;
  (* tear the final record: drop its last 5 bytes (mid-checksum) *)
  truncate_file path (file_size path - 5);
  let w2 = Wal.open_ ~fsync_policy:Wal.Never path in
  check_int "torn record dropped" 2 (Wal.last_seq w2);
  check_int "torn record counted" 1 (Wal.truncated_records w2);
  (* the log keeps accepting appends at the repaired sequence *)
  check_int "append resumes after repair" 3 (Wal.append w2 (batch 4));
  Wal.close w2;
  let records, truncated = Wal.read path in
  check_int "repaired log fully valid" 0 truncated;
  check_int "three records survive" 3 (List.length records);
  rm_rf dir

let test_wal_checksum_rejects_tail () =
  let dir = tmp_dir "wal-sum" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let g = small_graph () in
  let w = Wal.open_ ~fsync_policy:Wal.Never path in
  ignore (Wal.append w (Kaskade_gen.Mutate.random_ops ~seed:1 g));
  ignore (Wal.append w (Kaskade_gen.Mutate.random_ops ~seed:2 g));
  Wal.close w;
  (* flip a payload byte inside the final record: the length prefix
     still reads, so only the checksum can catch it *)
  flip_byte path (file_size path - 9);
  let w2 = Wal.open_ ~fsync_policy:Wal.Never path in
  check_int "checksum failure drops the tail record" 1 (Wal.last_seq w2);
  check_int "counted as torn" 1 (Wal.truncated_records w2);
  Wal.close w2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Snapshots: graph + view catalog round-trip                          *)

let test_snapshot_roundtrip () =
  let dir = tmp_dir "snap" in
  Unix.mkdir dir 0o755;
  let g = small_graph () in
  let m1 = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"Job" ~k:2 in
  let m2 = Materialize.k_hop_connector g ~src_type:"Job" ~dst_type:"File" ~k:1 in
  let stale_ops = Kaskade_gen.Mutate.random_ops ~seed:9 g in
  let views = [ (m1, Catalog.Fresh); (m2, Catalog.Stale stale_ops) ] in
  let path = Filename.concat dir "s.ksnap" in
  Snapshot.write path ~seq:7 ~graph:g ~views;
  let c = Snapshot.read path in
  check_int "seq survives" 7 c.Snapshot.seq;
  graph_eq "base graph identical" g c.Snapshot.graph;
  check_int "both views restored" 2 (List.length c.Snapshot.views);
  List.iter2
    (fun (m, f) (m', f') ->
      check_bool "view descriptor equal" true (m.Materialize.view = m'.Materialize.view);
      graph_eq "view graph identical" m.Materialize.graph m'.Materialize.graph;
      check_bool "vertex mapping equal" true (m.Materialize.new_of_old = m'.Materialize.new_of_old);
      check_bool "build cost equal" true (m.Materialize.build_cost = m'.Materialize.build_cost);
      check_bool "freshness equal (incl. Stale delta)" true (f = f'))
    views c.Snapshot.views;
  (* damage anywhere in the one-record file must surface as Corrupt,
     never as silently different data *)
  flip_byte path (file_size path / 2);
  (match Snapshot.read path with
  | exception Codec.Corrupt _ -> ()
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "damaged snapshot read back without error");
  rm_rf dir

let test_gio_save_atomic () =
  let dir = tmp_dir "gio" in
  Unix.mkdir dir 0o755;
  let g = small_graph () in
  let path = Filename.concat dir "g.kaskade" in
  Gio.save g path;
  check_bool "no .tmp residue" false (Sys.file_exists (path ^ ".tmp"));
  graph_eq "text save round-trips" g (Gio.load path);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Typed errors                                                        *)

let test_io_error_taxonomy () =
  (match K.Error.of_exn End_of_file with
  | Some (K.Error.Io _) -> ()
  | _ -> Alcotest.fail "End_of_file not classified as Io");
  match K.Error.of_exn (Codec.Corrupt { file = "wal.log"; reason = "bad checksum" }) with
  | Some (K.Error.Io msg) ->
    check_bool "message names the file" true
      (String.length msg >= 7 && String.sub msg 0 7 = "wal.log")
  | _ -> Alcotest.fail "Codec.Corrupt not classified as Io"

(* ------------------------------------------------------------------ *)
(* Facade recovery: replay idempotency                                 *)

(* Batches where every delete key appears twice: Overlay.apply's
   multiset semantics consume one instance per occurrence (the second
   may find nothing), and the WAL records the {e requested} ops, so
   replay re-runs exactly that decision procedure. Live and recovered
   graphs must agree byte for byte. *)
let dup_deletes ops =
  ops @ List.filter (function Graph.Overlay.Delete_edge _ -> true | _ -> false) ops

let test_recover_matches_live () =
  let dir = tmp_dir "replay" in
  let config =
    { K.Config.default with
      data_dir = Some dir; fsync_policy = Wal.Never; snapshot_every = 0;
      auto_refresh = false }
  in
  let ks = K.make ~config (small_graph ()) in
  K.Update.batch (dup_deletes (Kaskade_gen.Mutate.random_ops ~seed:11 (K.graph ks))) ks;
  K.Update.batch (dup_deletes (Kaskade_gen.Mutate.random_ops ~seed:12 (K.graph ks))) ks;
  let rks = K.recover ~config dir in
  graph_eq "recovered graph equals live" (K.graph ks) (K.graph rks);
  (* a snapshot covering the whole log makes the tail empty: nothing
     replays, and the graphs still agree *)
  ignore (K.snapshot ks);
  let m_replayed = Metrics.counter "kaskade.recovery_replayed_ops" in
  let before = Metrics.counter_value m_replayed in
  let rks2 = K.recover ~config dir in
  check_int "covering snapshot replays nothing" 0 (Metrics.counter_value m_replayed - before);
  graph_eq "snapshot-only recovery equals live" (K.graph ks) (K.graph rks2);
  rm_rf dir

let test_recover_is_idempotent () =
  let dir = tmp_dir "idem" in
  let config =
    { K.Config.default with
      data_dir = Some dir; fsync_policy = Wal.Never; snapshot_every = 0;
      auto_refresh = false }
  in
  let ks = K.make ~config (small_graph ()) in
  K.Update.batch (dup_deletes (Kaskade_gen.Mutate.random_ops ~seed:21 (K.graph ks))) ks;
  let r1 = K.recover ~config dir in
  let r2 = K.recover ~config dir in
  graph_eq "recovery is deterministic" (K.graph r1) (K.graph r2);
  (* and a recovered facade keeps the log growing correctly *)
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:22 (K.graph r1)) r1;
  let r3 = K.recover ~config dir in
  graph_eq "post-recovery appends recover too" (K.graph r1) (K.graph r3);
  rm_rf dir

let test_corrupt_snapshot_falls_back () =
  let dir = tmp_dir "fallback" in
  let config =
    { K.Config.default with
      data_dir = Some dir; fsync_policy = Wal.Never; snapshot_every = 0;
      auto_refresh = false }
  in
  let ks = K.make ~config (small_graph ()) in
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:31 (K.graph ks)) ks;
  (* newest snapshot (seq 1) gets damaged; recovery must fall back to
     the seq-0 snapshot written at open and replay the WAL instead *)
  ignore (K.snapshot ks);
  let newest = Store.snapshot_path dir 1 in
  check_bool "covering snapshot on disk" true (Sys.file_exists newest);
  flip_byte newest (file_size newest / 2);
  let rks = K.recover ~config dir in
  graph_eq "fallback snapshot + replay equals live" (K.graph ks) (K.graph rks);
  rm_rf dir

(* Views materialized, batches applied on both sides of a snapshot,
   then a recovery must answer the Fig. 7 anchored queries byte for
   byte like the live facade — through the views and on the base
   graph alike. *)
let test_recover_answers () =
  let dir = tmp_dir "answers" in
  let config =
    { K.Config.default with data_dir = Some dir; fsync_policy = Wal.Never; snapshot_every = 0 }
  in
  let ks = K.make ~config (small_graph ()) in
  let queries =
    List.map K.parse
      [ "MATCH (s:Job)<-[r*1..4]-(anc:Job) RETURN s, anc";
        "MATCH (s:Job)-[r*1..4]->(desc:Job) RETURN s, desc";
        "MATCH (s:File)-[r*1..4]->(desc:File) RETURN s, desc";
        "SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n" ]
  in
  let sel = K.select_views ks ~queries ~budget_edges:(4 * Graph.n_edges (K.graph ks)) in
  check_bool "views materialized" true (K.materialize_selected ks sel <> []);
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:41 (K.graph ks)) ks;
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:42 (K.graph ks)) ks;
  ignore (K.snapshot ks);
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:43 (K.graph ks)) ks;
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:44 (K.graph ks)) ks;
  let rks = K.recover ~config dir in
  graph_eq "recovered graph equals live" (K.graph ks) (K.graph rks);
  let answer k target q =
    match K.query ~target k q with
    | Ok (r, _) -> Kaskade_serve.Wire.render_result (K.graph k) r
    | Error e -> Alcotest.failf "query failed: %s" (K.Error.to_string e)
  in
  List.iter
    (fun q ->
      List.iter
        (fun target ->
          check_string
            (Printf.sprintf "%s answers identically after recovery" (Kaskade_query.Pretty.to_string q))
            (answer ks target q) (answer rks target q))
        [ K.Auto; K.Base ])
    queries;
  rm_rf dir

(* A durable facade (fsync always, snapshot every 4 appends) takes five
   recorded batches; a sixth dies halfway through its WAL append (the
   seeded [store.wal_append] fault writes half a record, fsyncs and
   re-raises). Recovery must rebuild a store identical to a
   never-crashed twin: graph bytes, view freshness, the torn record
   counted once, the tail past the snapshot replayed op for op, the
   2-hop query answered through the recovered view with the twin's
   rows, and the recovered store still accepting appends (a second
   recovery over the longer log is exact). *)
let test_recover_mid_append_kill () =
  let dir = tmp_dir "kill" in
  let gen () =
    Kaskade_gen.Provenance_gen.(generate { default with jobs = 150; files = 300; seed = 7 })
  in
  let config =
    { K.Config.default with
      data_dir = Some dir; fsync_policy = Wal.Always; snapshot_every = 4; auto_refresh = false }
  in
  let view =
    Kaskade_views.View.Connector
      (Kaskade_views.View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 })
  in
  let ks = K.make ~config (gen ()) in
  ignore (K.materialize ks view);
  (* the explicit snapshot covers the view, so recovery restores it
     instead of rematerializing *)
  ignore (K.snapshot ks);
  let recorded =
    List.init 5 (fun i ->
        let ops = Kaskade_gen.Mutate.random_ops ~seed:(101 + i) (K.graph ks) in
        K.Update.batch ops ks;
        ops)
  in
  let killed = Kaskade_gen.Mutate.random_ops ~seed:999 (K.graph ks) in
  let module Budget = Kaskade_util.Budget in
  check_bool "the kill aborts the batch" true
    (match
       Budget.Faults.(with_faults [ fault ~times:1 "store.wal_append" Fail ]) (fun () ->
           K.Update.batch killed ks)
     with
    | () -> false
    | exception Budget.Fault_injected _ -> true);
  let m_replayed = Metrics.counter "kaskade.recovery_replayed_ops" in
  let m_truncated = Metrics.counter "kaskade.recovery_truncated_records" in
  let replayed0 = Metrics.counter_value m_replayed in
  let truncated0 = Metrics.counter_value m_truncated in
  let rks = K.recover ~config dir in
  let twin = K.make ~config:{ config with K.Config.data_dir = None } (gen ()) in
  ignore (K.materialize twin view);
  List.iter (fun ops -> K.Update.batch ops twin) recorded;
  graph_eq "recovered graph equals the never-crashed twin" (K.graph twin) (K.graph rks);
  check_bool "view freshness equals the twin's" true
    (K.Update.freshness rks = K.Update.freshness twin);
  check_int "torn record counted once" 1 (Metrics.counter_value m_truncated - truncated0);
  let snap_seq = Store.snapshot_seq (Option.get (K.store rks)) in
  let expected_replayed =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i + 1 > snap_seq) (List.map List.length recorded))
  in
  check_int "tail past the snapshot replayed op for op" expected_replayed
    (Metrics.counter_value m_replayed - replayed0);
  let q = K.parse "MATCH (a:Job)-[r*2..2]->(b:Job) RETURN a, b" in
  ignore (K.Update.refresh_views rks);
  ignore (K.Update.refresh_views twin);
  let rows_of (r, how) =
    match r with
    | Kaskade_exec.Executor.Table t -> (List.sort compare t.Kaskade_exec.Row.rows, how)
    | Kaskade_exec.Executor.Affected _ -> Alcotest.fail "expected a table"
  in
  let answer k =
    match K.query k q with
    | Ok v -> rows_of v
    | Error e -> Alcotest.failf "query failed: %s" (K.Error.to_string e)
  in
  let r_rows, r_how = answer rks and t_rows, _ = answer twin in
  check_bool "recovered facade answers like the twin" true (r_rows = t_rows);
  check_bool "answered through the recovered view" true (r_how = K.Via_view "JOB_TO_JOB_2HOP");
  K.Update.batch (Kaskade_gen.Mutate.random_ops ~seed:2024 (K.graph rks)) rks;
  graph_eq "second recovery is exact after more appends" (K.graph rks)
    (K.graph (K.recover ~config dir));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Hostile view bytes                                                  *)

let kept_views =
  let open Kaskade_views.View in
  [ Connector (K_hop { src_type = "Job"; dst_type = "Job"; k = 2 });
    Summarizer (Vertex_inclusion [ "Job"; "File" ]);
    Summarizer (Vertex_removal [ "Task" ]);
    Summarizer (Edge_inclusion [ "WRITES_TO"; "IS_READ_BY" ]);
    Summarizer (Edge_removal [ "SUBMITTED" ]) ]

(* Tags of the deleted view kinds (closure, same-edge-type and
   source-to-sink connectors; vertex, subgraph and ego aggregators). *)
let retired_tags = [ 1; 2; 3; 14; 15; 16 ]

let encode_view v =
  let b = Buffer.create 32 in
  Codec.add_view b v;
  Buffer.contents b

let decode_view s = Codec.view (Codec.reader ~file:"view" s)
let retag tag s = String.mapi (fun i c -> if i = 0 then Char.chr tag else c) s

let test_view_tags () =
  List.iter
    (fun v ->
      check_bool (Kaskade_views.View.name v ^ " round-trips") true
        (Kaskade_views.View.compare v (decode_view (encode_view v)) = 0))
    kept_views;
  List.iter
    (fun tag ->
      let s = retag tag (encode_view (List.hd kept_views)) in
      check_bool (Printf.sprintf "tag %d is corrupt" tag) true
        (match decode_view s with _ -> false | exception Codec.Corrupt _ -> true))
    retired_tags

(* [Codec.view] over mutated encodings of every kept kind — bit flips,
   truncations, the tag byte replaced by a retired tag — returns a view
   or raises [Corrupt] or [End_of_file], and nothing else. *)
let prop_view_mutations_typed =
  let mutate acc (kind, pos, byte) =
    let m = String.length acc in
    if m = 0 then acc
    else
      let pos = pos mod m in
      match kind with
      | 0 -> String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor byte) else c) acc
      | 1 -> String.sub acc 0 pos
      | _ -> retag (List.nth retired_tags (byte mod List.length retired_tags)) acc
  in
  QCheck.Test.make ~name:"Codec.view on mutated input raises only Corrupt or End_of_file"
    ~count:500
    QCheck.(
      pair
        (0 -- (List.length kept_views - 1))
        (list_of_size Gen.(1 -- 3) (triple (0 -- 2) (0 -- 255) (1 -- 255))))
    (fun (i, muts) ->
      let mutated = List.fold_left mutate (encode_view (List.nth kept_views i)) muts in
      match decode_view mutated with
      | _ -> true
      | exception (Codec.Corrupt _ | End_of_file) -> true
      | exception e -> QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) mutated)

let () =
  Alcotest.run "kaskade-store"
    [
      ( "wal",
        [
          Alcotest.test_case "append/read round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail truncated, not fatal" `Quick
            test_wal_torn_tail_truncated;
          Alcotest.test_case "checksum rejects damaged tail" `Quick
            test_wal_checksum_rejects_tail;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "graph + views round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "text save is crash-atomic" `Quick test_gio_save_atomic;
        ] );
      ("errors", [ Alcotest.test_case "I/O failures are typed" `Quick test_io_error_taxonomy ]);
      ( "codec",
        [ Alcotest.test_case "view tags" `Quick test_view_tags;
          QCheck_alcotest.to_alcotest prop_view_mutations_typed ] );
      ( "recovery",
        [
          Alcotest.test_case "replay matches live (dup delete keys)" `Quick
            test_recover_matches_live;
          Alcotest.test_case "recovery is idempotent" `Quick test_recover_is_idempotent;
          Alcotest.test_case "facade recovers byte-identically" `Quick test_recover_answers;
          Alcotest.test_case "corrupt snapshot falls back" `Quick
            test_corrupt_snapshot_falls_back;
          Alcotest.test_case "mid-append kill recovers to the twin" `Quick
            test_recover_mid_append_kill;
        ] );
    ]
