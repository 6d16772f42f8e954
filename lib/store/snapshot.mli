(** Compact binary snapshots of the frozen CSR plus the view catalog.

    A snapshot captures everything recovery needs to skip both graph
    re-generation and view rematerialization: the base graph's flat
    topology arrays and property tables, and per materialized view its
    descriptor, physical graph, vertex mapping, build cost and
    {e freshness} (including the pending op delta of a [Stale] entry,
    so a view snapshotted mid-staleness recovers mid-staleness and the
    next refresh absorbs exactly the right delta).

    On-disk format: 8-byte magic ["KASKSNP1"], then one checksummed
    record with the same framing as the WAL —
    {v u32 payload_len | payload | i64 fnv1a64(payload) v} —
    whose payload is the {!Codec} encoding (all arrays flat,
    fixed-width, little-endian). Writes are crash-atomic: the bytes go
    to [<path>.tmp], are fsynced, and rename into place, so a snapshot
    file either exists wholly valid or not at all; a checksum failure
    (e.g. media damage) raises {!Codec.Corrupt} and recovery falls
    back to the previous snapshot. *)

type contents = {
  seq : int;  (** WAL sequence number the snapshot includes. *)
  graph : Kaskade_graph.Graph.t;
  views : (Kaskade_views.Materialize.materialized * Kaskade_views.Catalog.freshness) list;
}

val write :
  string ->
  seq:int ->
  graph:Kaskade_graph.Graph.t ->
  views:(Kaskade_views.Materialize.materialized * Kaskade_views.Catalog.freshness) list ->
  unit
(** Crash-atomic write ([<path>.tmp] + fsync + rename). Raises
    [Invalid_argument] on a [Rebuilding] entry — the facade serializes
    snapshots against refreshes, so one can only appear through caller
    error, and snapshotting its pre-delta graph would lose the
    delta. *)

val read : string -> contents
(** Raises {!Codec.Corrupt} on bad magic or checksum, [End_of_file]
    on a short file, [Sys_error] when absent. *)
