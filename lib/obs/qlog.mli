(** Structured query log: a process-global bounded ring of per-query
    records, appended by the facade on every [Kaskade.query] (with the
    default [Auto] target) and [Kaskade.profile] — successes and
    failures alike. The ring
    is the raw material for two consumers: the {!Kaskade.Advisor},
    which replays the logged workload through enumeration + selection
    to recommend view changes, and the JSONL sink/loader, which moves
    a captured workload across process boundaries (bench runs, the
    [kaskade log] / [kaskade advise] CLI).

    Unlike {!Metrics} (aggregates) and {!Trace} (opt-in, one capture
    at a time), the query log keeps {e per-query} detail continuously
    at bounded memory: the ring holds the most recent {!capacity}
    records and older ones fall off. All entry points are mutex-
    protected, so appending from worker domains and truncating
    ({!clear} / {!set_capacity}) from the main domain can race without
    tearing a record. *)

(** How the query was answered. [View_hit v] means the rewriter routed
    it through materialized view [v]; [Fallback] means it ran against
    the base graph; [Failed l] carries the {!Kaskade.Error.label} of
    the typed failure (["budget_exhausted"], ["parse_error"], ...). *)
type outcome = View_hit of string | Fallback | Failed of string

(** One plan operator, flattened from the {!Explain} tree in pre-order
    — enough to study est-vs-actual cardinality drift per operator
    without retaining the tree itself. *)
type op_row = {
  op : string;
  detail : string;
  est_rows : float option;
  actual_rows : int option;
  op_seconds : float option;
}

type record = {
  seq : int;  (** Process-global append sequence number, from 1. *)
  query : string;  (** Canonical [Pretty.to_string] text — re-parseable. *)
  query_hash : string;  (** {!hash_query} of [query]. *)
  plan_fingerprint : string;  (** {!fingerprint} of the executed plan; [""] when planning failed. *)
  outcome : outcome;
  rows : int;  (** Result rows ([0] on failure). *)
  seconds : float;  (** Wall time on the monotonic clock. *)
  budget : string option;  (** Rendered budget spend, when the run carried a budget. *)
  operators : op_row list;
  session : string option;  (** Serving-layer session id, when the query came through {!Kaskade_serve}. *)
  queue_wait_s : float option;  (** Admission-queue wait before execution started. *)
  trace : string option;
      (** Request trace id ({!Tracectx}) — correlates this record with
          the query's Chrome-trace spans and its wire response. *)
}

val hash_query : string -> string
(** FNV-1a (64-bit) of the canonical query text, as 16 hex digits.
    Stable across processes — log files from different runs group by
    the same hash. *)

val fingerprint : Explain.node -> string
(** Hash of the plan {e shape}: operator kinds and details, position
    in the tree — not cardinalities or timings, so the same plan
    fingerprints identically whether or not it was profiled. *)

val capacity : unit -> int
(** Ring capacity; default 512. *)

val set_capacity : int -> unit
(** Resize the ring, keeping the most recent [min length capacity]
    records. Clamped to at least 1. *)

val length : unit -> int
(** Records currently held (≤ {!capacity}). *)

val total : unit -> int
(** Records ever appended this process (monotonic; survives {!clear}). *)

val clear : unit -> unit
(** Drop all held records. {!total} and the sequence counter keep
    counting. *)

val records : unit -> record list
(** Current window, oldest first. *)

val add :
  ?budget:string ->
  ?plan:Explain.node ->
  ?session:string ->
  ?queue_wait_s:float ->
  ?trace:string ->
  query:string ->
  outcome:outcome ->
  rows:int ->
  seconds:float ->
  unit ->
  record
(** Build a record (hashing the query, fingerprinting and flattening
    [plan] when given), append it, and return it. This is the facade's
    entry point. Fires the sink and, on every [every]-th append, the
    notifier — both outside the lock. When [?trace] is omitted the
    ambient {!Tracectx.current} is recorded, so callers inside a
    request context need no explicit plumbing. *)

val set_slow_threshold : float -> unit
(** Seconds at or above which an appended record counts toward the
    [kaskade.slow_queries] counter (default [1.0]; clamped to ≥ 0).
    Process-global, like the ring. *)

val set_sink : (record -> unit) option -> unit
(** Per-append hook (e.g. streaming JSONL to a file). Runs on the
    appending domain, outside the log's lock; must not itself append. *)

val set_notifier : ?every:int -> (string -> unit) option -> unit
(** Install a periodic progress hook: every [every] (default 100)
    appends, the hook receives {!summary}. For long bench runs — one
    status line instead of silence. *)

val summary : unit -> string
(** One line over the current window: totals, outcome mix, and exact
    p50/p95/p99 latency (computed from the window's individual
    timings, not histogram buckets). *)

val record_to_json : record -> Report.json
val record_of_json : Report.json -> (record, string) result

val save : string -> unit
(** Write {!to_jsonl} to a file ([-] is not special here; the CLI
    handles stdout itself). *)

val load : string -> (record list, string) result
(** Read a JSONL file back (blank lines skipped). Does {e not} append
    to the ring. The error names the offending line. *)
