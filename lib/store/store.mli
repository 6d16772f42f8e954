(** Durable store handle: a data directory holding one {!Wal} log plus
    a sequence of binary {!Snapshot} files. The facade opens one when
    [Config.data_dir] is set, appends every update batch to the WAL
    before applying it, and periodically folds the log into a fresh
    snapshot so recovery replays a bounded tail.

    Directory layout:
    {v
      <dir>/wal.log                    the write-ahead log
      <dir>/snapshot-<seq12>.ksnap     snapshots, seq zero-padded
    v}

    Recovery ({!recover}) loads the latest snapshot that validates —
    a corrupt one is skipped and the previous one used — then replays
    every WAL batch with a sequence number greater than the snapshot's.
    The sequence bookkeeping makes replay idempotent: a batch covered
    by the snapshot is never applied twice. A torn final WAL record is
    truncated, not fatal.

    Metrics: [kaskade.recovery_replayed_ops],
    [kaskade.recovery_truncated_records] (plus the [kaskade.wal_*]
    family from {!Wal}). *)

type t

val open_ : ?fsync_policy:Wal.fsync_policy -> ?snapshot_every:int -> string -> t
(** Open (creating if needed) a store rooted at the directory. The WAL
    is validated and any torn tail truncated. [snapshot_every]
    (default 512) is the append count after which {!should_snapshot}
    turns true; [0] disables automatic snapshots. *)

val last_seq : t -> int
(** Sequence number of the last durable WAL record. *)

val snapshot_seq : t -> int
(** Sequence covered by the newest on-disk snapshot, [-1] when none
    has been written yet. *)

val append : t -> Kaskade_graph.Graph.Overlay.op list -> int
(** WAL-append one batch (see {!Wal.append}) and advance the
    snapshot-cadence counter. *)

val should_snapshot : t -> bool
(** True once [snapshot_every > 0] appends have accumulated since the
    last snapshot. *)

val write_snapshot :
  t ->
  graph:Kaskade_graph.Graph.t ->
  views:
    (Kaskade_views.Materialize.materialized * Kaskade_views.Catalog.freshness) list ->
  string
(** Crash-atomically write a snapshot covering {!last_seq}, reset the
    cadence counter, and return its path. Older snapshots are kept —
    they are the fallback when the newest is damaged. *)

val snapshot_path : string -> int -> string

val close : t -> unit

(** Result of {!recover}: the reopened store plus everything needed to
    rebuild the in-memory engine without touching the base dataset. *)
type recovered = {
  r_store : t;
  r_graph : Kaskade_graph.Graph.t;
  r_views :
    (Kaskade_views.Materialize.materialized * Kaskade_views.Catalog.freshness) list;
  r_tail : (int * Kaskade_graph.Graph.Overlay.op list) list;
      (** WAL batches past the snapshot, in order — the caller replays
          these onto the overlay. *)
  r_snapshot_seq : int;
  r_replayed_ops : int;  (** Total ops across [r_tail]. *)
  r_truncated_records : int;  (** Torn tail records dropped (0 or 1). *)
}

val recover : ?fsync_policy:Wal.fsync_policy -> ?snapshot_every:int -> string -> recovered
(** Load the newest valid snapshot (skipping corrupt ones with a
    warning), scan the WAL tolerating a torn tail, and return the
    batches to replay. Raises {!Codec.Corrupt} when the directory
    holds no valid snapshot (a WAL alone cannot rebuild the seed
    graph), [Sys_error] when the directory does not exist. *)
