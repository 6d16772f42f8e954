module Metrics = Kaskade_obs.Metrics

let log_src = Logs.Src.create "kaskade.store.recover" ~doc:"Kaskade crash recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_replayed = Metrics.counter ~help:"ops replayed from the WAL tail" "kaskade.recovery_replayed_ops"

let m_truncated =
  Metrics.counter ~help:"torn WAL tail records truncated" "kaskade.recovery_truncated_records"

type t = {
  dir : string;
  wal : Wal.t;
  snapshot_every : int;
  mutable appends_since_snapshot : int;
  mutable snapshot_seq : int;
}

let wal_path dir = Filename.concat dir "wal.log"
let snapshot_path dir seq = Filename.concat dir (Printf.sprintf "snapshot-%012d.ksnap" seq)

(* Seqs of on-disk snapshots, newest first. *)
let snapshot_seqs dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "snapshot-%12d.ksnap%!" (fun seq -> seq) with
         | Some seq when Filename.concat dir name = snapshot_path dir seq -> Some seq
         | _ -> None)
  |> List.sort (fun a b -> compare b a)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?fsync_policy ?(snapshot_every = 512) dir =
  ensure_dir dir;
  let wal = Wal.open_ ?fsync_policy (wal_path dir) in
  {
    dir;
    wal;
    snapshot_every;
    appends_since_snapshot = 0;
    snapshot_seq = (match snapshot_seqs dir with seq :: _ -> seq | [] -> -1);
  }

let last_seq t = Wal.last_seq t.wal
let snapshot_seq t = t.snapshot_seq

let append t ops =
  let seq = Wal.append t.wal ops in
  t.appends_since_snapshot <- t.appends_since_snapshot + 1;
  seq

let should_snapshot t = t.snapshot_every > 0 && t.appends_since_snapshot >= t.snapshot_every

let write_snapshot t ~graph ~views =
  let seq = last_seq t in
  let path = snapshot_path t.dir seq in
  Snapshot.write path ~seq ~graph ~views;
  t.appends_since_snapshot <- 0;
  t.snapshot_seq <- seq;
  path

let close t = Wal.close t.wal

type recovered = {
  r_store : t;
  r_graph : Kaskade_graph.Graph.t;
  r_views :
    (Kaskade_views.Materialize.materialized * Kaskade_views.Catalog.freshness) list;
  r_tail : (int * Kaskade_graph.Graph.Overlay.op list) list;
  r_snapshot_seq : int;
  r_replayed_ops : int;
  r_truncated_records : int;
}

(* Newest snapshot that validates; corrupt ones are skipped so a
   damaged latest snapshot costs a longer replay, not the store. *)
let load_snapshot dir =
  let rec try_seqs = function
    | [] ->
      raise
        (Codec.Corrupt { file = dir; reason = "no valid snapshot (cannot rebuild seed graph from WAL alone)" })
    | seq :: rest -> begin
      let path = snapshot_path dir seq in
      match Snapshot.read path with
      | snap -> snap
      | exception (Codec.Corrupt _ | End_of_file) ->
        Log.warn (fun k -> k "%s: corrupt snapshot, falling back to previous" path);
        try_seqs rest
    end
  in
  try_seqs (snapshot_seqs dir)

let recover ?fsync_policy ?snapshot_every dir =
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let snap = load_snapshot dir in
  let batches, truncated =
    if Sys.file_exists (wal_path dir) then Wal.read (wal_path dir) else ([], 0)
  in
  (* Seq bookkeeping is the idempotency mechanism: batches at or below
     the snapshot's seq are already folded in and must not reapply. *)
  let tail = List.filter (fun (seq, _) -> seq > snap.Snapshot.seq) batches in
  let replayed = List.fold_left (fun acc (_, ops) -> acc + List.length ops) 0 tail in
  Metrics.incr ~by:replayed m_replayed;
  Metrics.incr ~by:truncated m_truncated;
  Log.info (fun k ->
      k "%s: recovered from snapshot seq %d, replaying %d batches (%d ops)%s" dir
        snap.Snapshot.seq (List.length tail) replayed
        (if truncated > 0 then ", torn tail truncated" else ""));
  let store = open_ ?fsync_policy ?snapshot_every dir in
  {
    r_store = store;
    r_graph = snap.Snapshot.graph;
    r_views = snap.Snapshot.views;
    r_tail = tail;
    r_snapshot_seq = snap.Snapshot.seq;
    r_replayed_ops = replayed;
    r_truncated_records = truncated;
  }
