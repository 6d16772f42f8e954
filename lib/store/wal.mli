(** Write-ahead log for the live-update path. The record vocabulary is
    exactly [Graph.Overlay.op]: the facade appends every requested
    update batch here — and fsyncs, per {!fsync_policy} — {e before}
    applying it to the overlay, so a crash can lose at most the batch
    whose append tore, never one that was acknowledged.

    On-disk format: an 8-byte magic ["KASKWAL1"] followed by
    length-prefixed records

    {v u32 payload_len | i64 seq | payload | i64 fnv1a64(seq|payload) v}

    where the payload is the {!Codec} encoding of the op list and the
    checksum covers the seq word plus the payload. Sequence numbers
    are dense from 1. {!open_} validates the whole log: a torn or
    checksum-failing final record is {e truncated, not fatal} (the
    crash-mid-append case recovery must absorb); damage before the
    tail raises {!Codec.Corrupt}.

    Metrics: [kaskade.wal_appends], [kaskade.wal_bytes] (record bytes
    including framing), [kaskade.wal_fsyncs].

    Fault injection: ["store.wal_append"] ({!Kaskade_util.Budget.fault_point})
    fires inside {!append} and simulates a kill mid-write — a prefix
    of the record reaches the file, then the armed exception
    propagates. The [bench recovery] drill uses it for seeded
    crashes. *)

(** When appends reach the platter: [Always] fsyncs every append
    (no acknowledged batch is ever lost, ~1 fsync of latency per
    batch); [Every_n n] fsyncs every [n]-th append (bounded loss
    window, amortized cost); [Never] only flushes to the OS (fast,
    loses the page cache on power failure — fine for tests and
    rebuildable data). *)
type fsync_policy = Always | Every_n of int | Never

val fsync_policy_of_string : string -> fsync_policy
(** ["always"], ["never"], or ["every:N"]; raises [Invalid_argument]
    otherwise. *)

val fsync_policy_to_string : fsync_policy -> string

type t

val open_ : ?fsync_policy:fsync_policy -> string -> t
(** Open (creating if absent) the log for append. Existing records are
    validated; a torn tail is truncated off the file before the handle
    is positioned for append. Default policy is [Always]. *)

val last_seq : t -> int
(** Sequence number of the last durable record (0 when empty). *)

val truncated_records : t -> int
(** Torn tail records dropped by this {!open_} (0 or 1). *)

val append : t -> Kaskade_graph.Graph.Overlay.op list -> int
(** Append one batch and return its sequence number, syncing per the
    policy. The record is fully written (and, under [Always], fsynced)
    before return. *)

val close : t -> unit
(** Flush, fsync (unless the policy is [Never]) and close. *)

val read : string -> (int * Kaskade_graph.Graph.Overlay.op list) list * int
(** Read-only scan of a log file: the valid [(seq, batch)] records in
    order, plus the number of torn tail records ignored (0 or 1). The
    file is not modified. Raises [Codec.Corrupt] on a bad magic,
    [Sys_error] when the file does not exist. *)
