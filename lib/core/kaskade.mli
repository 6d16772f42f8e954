(** The Kaskade system facade (paper Fig. 2): a graph plus workload
    analyzer (view selection), view enumerator, query rewriter, and
    execution engine, wired together — over a {e live} graph: the
    facade owns a [Graph.Overlay] delta layer, so the graph can be
    mutated through {!Update} and every materialized view is
    freshness-tracked ({!Kaskade_views.Catalog.freshness}) and
    repaired incrementally ({!Kaskade_views.Maintain}) before it is
    allowed to answer a query.

    {[
      let ks = Kaskade.make graph in
      let q = Kaskade.parse "SELECT ... FROM (MATCH ...)" in
      (* choose + materialize views for a workload under a budget *)
      let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:100_000 in
      Kaskade.materialize_selected ks sel;
      (* transparently answer from the best materialized view *)
      match Kaskade.query ks q with
      | Ok (result, how) ->
        (* mutate; views go stale, the next query repairs them first *)
        Kaskade.Update.batch ops ks;
        let result' = Kaskade.query ks q in
        ...
      | Error e -> ...
    ]}

    Non-default knobs go through {!Config.t} with record-update
    syntax:

    {[
      let ks = Kaskade.make ~config:{ Kaskade.Config.default with alpha = 90.0 } graph
    ]} *)

(** Re-exported components (see each module's own documentation). *)

module Facts = Facts
module Rules = Rules
module Enumerate = Enumerate
module Estimator = Estimator
module Selection = Selection
module Rewrite = Rewrite
module Error = Error

type t

type run_target =
  | Raw  (** Answered on the base graph. *)
  | Via_view of string  (** Answered over the named materialized view. *)

(** Construction knobs, collapsed into one record so call sites name
    only what they change ([{ Config.default with alpha = 90.0 }]) and
    new knobs never ripple through every caller's signature. *)
module Config : sig
  type t = {
    alpha : float;
        (** View-size estimation percentile (default 95) — the
            operating point the paper recommends (§VII-D). *)
    mode : Kaskade_exec.Executor.mode;  (** Path-semantics mode (default [Distinct_endpoints]). *)
    pool : Kaskade_util.Pool.t option;
        (** The one domain pool threaded through materialization,
            graph statistics, and view refresh (default [None]:
            [Kaskade_util.Pool.default] inside each component). *)
    auto_refresh : bool;
        (** [true] (default): query entry points repair stale views
            before planning. [false]: they fall back to the base graph
            and leave views stale until {!Update.refresh_views}. *)
    compact_threshold : float;
        (** Overlay ratio past which a batch triggers
            [Graph.Overlay.compact] (default 0.25). *)
    breaker_threshold : int;
        (** Consecutive refresh failures (default 3) that open a
            view's circuit breaker. While open the view is
            {e quarantined}: refresh attempts are skipped, it stays
            [Stale], and the planner transparently answers its queries
            from the base graph (counted by [kaskade.fallback_runs]).
            After the cooldown one half-open probe refresh is allowed
            — success closes the breaker, failure reopens it. *)
    breaker_cooldown_s : float;
        (** Quarantine duration in seconds (default 30, monotonic
            clock). *)
    plan_cache : bool;
        (** [true] (default) caches {!query}'s routing decision per
            canonical query (keyed by the same FNV-1a hash that groups
            [Kaskade_obs.Qlog] records): a repeated query skips the
            repair scan, per-view rewriting, and cost comparison and
            goes straight to the executor. Entries are invalidated as
            a whole on {e any} graph or catalog change, and the cache
            stands down entirely while any view is stale under
            [auto_refresh], so degradation retries and breaker probes
            are never skipped. Observed through the
            [kaskade.plan_cache_*] counters/gauge and the [plan_cache]
            field of {!explain} reports. [false] plans every query
            from scratch (the cold-path baseline the
            [bench e2e] plan-cache comparison measures
            against). *)
    data_dir : string option;
        (** [Some dir] makes the facade {e durable}: every update
            batch is appended (and fsynced per [fsync_policy]) to
            [dir/wal.log] {e before} it touches the overlay, and
            binary snapshots of the frozen CSR plus the view catalog
            are written to [dir/snapshot-*.ksnap] — immediately for a
            fresh directory (the seq-0 seed anchor), then every
            [snapshot_every] batches and on {!snapshot}. After a
            crash, {!recover} rebuilds the facade from the newest
            valid snapshot plus the WAL tail. [None] (default) keeps
            everything in memory. *)
    fsync_policy : Kaskade_store.Wal.fsync_policy;
        (** When WAL appends reach the platter (default [Always]:
            no acknowledged batch is ever lost). See
            {!Kaskade_store.Wal.fsync_policy}. *)
    snapshot_every : int;
        (** Update batches between automatic snapshots (default 512);
            [0] disables the cadence (snapshots then only happen via
            {!snapshot}). More frequent snapshots shorten recovery
            replay at the cost of write amplification. *)
  }

  val default : t
end

val make : ?config:Config.t -> Kaskade_graph.Graph.t -> t
(** Build a facade over [graph] (default {!Config.default}). The
    facade owns a [Graph.Overlay] delta layer over [graph]; mutate it
    through {!Update} only. *)

val graph : t -> Kaskade_graph.Graph.t
(** Current frozen snapshot — base plus any applied updates. Cheap
    when no update happened since the last call. *)

val overlay : t -> Kaskade_graph.Graph.Overlay.t
(** The facade's live delta layer. Exposed for the serving layer
    ({!Kaskade_serve.Session}), which pins snapshot versions on it;
    mutate only through {!Update} so catalog freshness and the plan
    cache stay coherent. *)

val version : t -> int
(** Current overlay version ([Graph.Overlay.version]) — bumped by
    every effective mutation. *)

val schema : t -> Kaskade_graph.Schema.t

val stats : t -> Kaskade_graph.Gstats.t
(** Statistics of {!graph}, recomputed lazily after updates. *)

val catalog : t -> Kaskade_views.Catalog.t

(** {1 Durability}

    Active when [Config.data_dir] is set; see {!Kaskade_store} for
    the WAL/snapshot formats and the recovery protocol. *)

val store : t -> Kaskade_store.Store.t option
(** The durability layer, [None] for an in-memory facade. *)

val snapshot : t -> string
(** Crash-atomically snapshot the current frozen graph plus the whole
    view catalog (per-view graph, vertex mapping, freshness — a view
    snapshotted [Stale] recovers [Stale] with its delta intact) and
    return the snapshot path. Also resets the [snapshot_every]
    cadence. Raises [Invalid_argument] when no [data_dir] is
    configured or a refresh is in flight. *)

val recover : ?config:Config.t -> string -> t
(** Rebuild a facade from a data directory: load the newest valid
    snapshot (a corrupt one is skipped in favour of its predecessor),
    restore the view catalog with per-view freshness, then replay
    every WAL batch past the snapshot's sequence number — the seq
    bookkeeping makes replay idempotent, and a torn final record
    (crash mid-append) is truncated, not fatal. The returned facade
    has the store attached and keeps journaling. [config]'s
    [data_dir] field is ignored (the directory argument wins); its
    other fields configure the facade as in {!make}.

    Metrics: [kaskade.recovery_replayed_ops],
    [kaskade.recovery_truncated_records].

    Raises [Kaskade_store.Codec.Corrupt] when no valid snapshot
    exists, [Sys_error] when the directory does not. *)

val parse : string -> Kaskade_query.Ast.t
(** Parse the hybrid query language (re-export of [Qparser.parse]).
    Raises [Qparser.Parse_error] (with position); {!parse_result} is
    the non-raising form. *)

val parse_result : string -> (Kaskade_query.Ast.t, Error.t) result
(** {!parse} with the error as a value ([Error.Parse]). *)

(** {1 Updates}

    The mutation API (replaces reaching into [Maintain] by hand: ops
    go through the facade, which records them against every catalog
    entry so freshness is never silently wrong). *)

type refresh_outcome = {
  refreshed_view : string;
  refresh_strategy : Kaskade_views.Maintain.strategy;
      (** How the refresh was performed (delta or flagged full
          rebuild). *)
  refresh_ops : int;  (** Ops absorbed by this refresh. *)
  refresh_seconds : float;
}

module Update : sig
  (** Re-export of {!Kaskade_graph.Graph.Overlay.op} so batches can be
      built without importing graph internals. *)
  type op = Kaskade_graph.Graph.Overlay.op =
    | Insert_vertex of { vtype : string; props : (string * Kaskade_graph.Value.t) list }
    | Insert_edge of {
        src : int;
        dst : int;
        etype : string;
        props : (string * Kaskade_graph.Value.t) list;
      }
    | Delete_edge of { src : int; dst : int; etype : string }

  val pp_op : Format.formatter -> op -> unit

  val insert_vertex :
    t -> vtype:string -> ?props:(string * Kaskade_graph.Value.t) list -> unit -> int
  (** Returns the new (stable) vertex id. *)

  val batch : op list -> t -> unit
  (** Apply a batch in order. Failed deletes are dropped; the ops that
      took effect are recorded against every catalog entry
      ([Fresh -> Stale], [Stale -> Stale] with the delta appended).
      May compact the overlay (see [compact_threshold]). *)

  val refresh_views :
    ?budget:Kaskade_util.Budget.t -> ?names:string list -> t -> refresh_outcome list
  (** Repair stale views — incrementally when the delta is
      expressible, otherwise by flagged full rebuild — and return what
      was done (fresh views are skipped and absent from the result).
      [names] restricts to specific views; raises [Not_found] on
      unknown names. Updates the [kaskade.view_refreshes] /
      [kaskade.refresh_seconds] / [kaskade.stale_views] metrics.

      A refresh that crashes raises {!Error.Refresh_error} after
      restoring the entry to [Stale] (delta intact) and charging the
      view's circuit breaker ([kaskade.refresh_failures],
      [kaskade.breaker_open] metrics); quarantined views are skipped
      silently. [budget] bounds the work ([Budget.Exhausted]
      propagates and does {e not} charge the breaker). *)

  val freshness : t -> (string * Kaskade_views.Catalog.freshness) list
  (** Freshness of every catalog entry, sorted by view name. *)
end

(** {1 Planning and materialization} *)

val enumerate_views :
  ?budget:Kaskade_util.Budget.t -> t -> Kaskade_query.Ast.t -> Enumerate.enumeration
(** Constraint-based view enumeration for one query (§IV). [budget]
    bounds the Prolog engine (see {!Enumerate.enumerate}). *)

val select_views :
  ?solver:Selection.solver ->
  ?query_weights:float list ->
  t ->
  queries:Kaskade_query.Ast.t list ->
  budget_edges:int ->
  Selection.t
(** Workload analysis (§V-B). Does not materialize anything. *)

val materialize : t -> Kaskade_views.View.t -> Kaskade_views.Catalog.entry
(** Execute a view definition against the current graph and register
    the result as [Fresh]. Idempotent per view name while the entry is
    [Fresh]; a stale entry is re-materialized from scratch. *)

val materialize_selected : t -> Selection.t -> Kaskade_views.Catalog.entry list

val best_rewriting :
  t -> Kaskade_query.Ast.t -> (Rewrite.rewriting * Kaskade_views.Catalog.entry) option
(** Among materialized {e fresh} views, the rewriting with the lowest
    estimated evaluation cost — [None] when no view helps (§V-C).
    Repairs stale views first when [auto_refresh] is on. *)

(** Where {!query} evaluates. *)
type target =
  | Auto  (** Planner's choice: cheapest fresh view, else base graph. *)
  | Base  (** Always the (current) base graph. *)
  | View of string  (** A named materialized view, no fallback. *)

val query :
  ?target:target ->
  ?budget:Kaskade_util.Budget.t ->
  t ->
  Kaskade_query.Ast.t ->
  (Kaskade_exec.Executor.result * run_target, Error.t) result
(** The one query entry point. With [target = Auto] (the default):
    view-based evaluation — rewrite over the cheapest applicable
    materialized view, falling back to the base graph. {b Never}
    answers from a view whose freshness is not [Fresh]: stale views
    are either repaired first ([auto_refresh]) or passed over in
    favour of the base graph. Updates the process-wide metrics
    registry ([kaskade.view_hits] / [kaskade.view_misses] counters,
    the [kaskade.query_seconds] histogram and its outcome-split
    variants [.view_hit] / [.fallback] / [.timeout] — see
    [Kaskade_obs.Metrics]) and appends one [Kaskade_obs.Qlog] record
    per call — successes and governed failures alike — carrying the
    canonical query text, plan fingerprint, routing outcome, row
    count, wall time and budget spend. The accumulated log is what
    {!Advisor.advise} replays.

    {b Degradation (Auto):} a repair that {e fails} is swallowed —
    the failure is metered ([kaskade.refresh_failures]) and charged to
    the view's circuit breaker, the view stays [Stale], and the query
    is answered from the base graph ([kaskade.fallback_runs] counts
    the queries a quarantined view could have served). [budget] bounds
    the whole pipeline (repair, planning, execution); exhaustion
    surfaces as [Error Budget_exhausted] (counted by
    [kaskade.query_timeouts]) and leaves the system consistent.

    [target = Base] skips planning and the query log and evaluates
    directly on the base graph (the baseline view routing is diffed
    against). [target = View v]
    evaluates an (already rewritten) query on view [v] with no
    base-graph fallback: a stale view is repaired first under
    [auto_refresh] (a failed or breaker-blocked repair is
    [Error (Refresh_failed _)]), refused as [Error (Plan _)]
    otherwise, and an unknown name is [Error (Plan _)]. The returned
    [run_target] reports where the query actually ran. Truly
    unexpected exceptions still propagate (see {!Error.of_exn}). *)

(** {1 EXPLAIN / PROFILE}

    Observability entry points mirroring {!query}'s decision process
    without (EXPLAIN) or alongside (PROFILE) execution. *)

type view_candidate = {
  cand_view : string;  (** Materialized view name. *)
  cand_edges : int;  (** Actual size of the materialized view. *)
  cand_cost : float option;
      (** Estimated cost of the rewritten query over the view; [None]
          when the view cannot answer the query {e or is not fresh}
          (the planner refuses stale views outright). *)
  cand_freshness : Kaskade_views.Catalog.freshness;
  cand_refresh : string option;
      (** For non-fresh candidates: the refresh strategy a repair
          would use (from [Maintain.plan]), e.g. ["delta(+3/-1
          pairs)"] or ["rebuild: ..."], or ["quarantined (breaker
          open)"] when the circuit breaker blocks repair. *)
  cand_breaker : string option;
      (** Circuit-breaker state when it is not pristine (open,
          half-open, or closed with recorded failures), e.g.
          ["open (2.1s into 30.0s cooldown), 3 failures"]. *)
}

type report = {
  target : run_target;  (** The decision {!query} would make. *)
  raw_cost : float;  (** Estimated cost on the base graph. *)
  executed : Kaskade_query.Ast.t;
      (** The query actually evaluated: the rewriting when
          [target = Via_view _], the original otherwise. *)
  candidates : view_candidate list;
      (** Every materialized view considered, in catalog order, with
          its freshness. *)
  refreshes : refresh_outcome list;
      (** Repairs performed before planning (PROFILE with
          [auto_refresh] only; EXPLAIN never mutates). *)
  enum_candidates : string list;
      (** View names the enumerator proposes for this query (whether
          or not they are materialized). *)
  enum_inference_steps : int;  (** Prolog resolution steps spent. *)
  selection : Selection.t option;
      (** The most recent {!select_views} outcome — knapsack inputs
          (per-candidate size/cost/value) and outputs (chosen set,
          weight). [None] before any selection. *)
  budget : string option;
      (** State of the budget the caller passed ([Budget.describe] at
          report time); [None] when the call was unbudgeted. *)
  plan_cache : string option;
      (** What the plan cache would do for this query right now:
          ["cold"], or ["warm (N hits, plan <fingerprint>)"] when a
          {!query} would skip planning. [None] when the cache is
          disabled. *)
  plan : Kaskade_obs.Explain.node;  (** Operator tree for [executed]. *)
}

val explain : ?budget:Kaskade_util.Budget.t -> t -> Kaskade_query.Ast.t -> report
(** The plan and rewrite decision for [q], without executing it.
    Read-only: stale views are {e reported} (freshness plus the
    refresh strategy a repair would use) but never repaired, and the
    reported target is what {!query} would pick with the catalog in this
    state. [budget] is surfaced in the report, not consumed. *)

val profile :
  ?budget:Kaskade_util.Budget.t ->
  t ->
  Kaskade_query.Ast.t ->
  Kaskade_exec.Executor.result * report
(** Execute [q] exactly as {!query} would (the result is identical —
    including budget enforcement and refresh-failure degradation) and
    return the plan annotated with per-operator actual rows and wall
    times, plus any view repairs that ran first. *)

val report_to_string : report -> string

val report_json : report -> Kaskade_obs.Report.json
(** Structured form of the whole report, including the plan tree, the
    selection trace, per-candidate freshness and refresh decisions. *)

(** {1 Workload advisor}

    Closes the observe-decide loop: the query log that {!query} /
    {!profile} accumulate ([Kaskade_obs.Qlog]) is replayed through the
    same enumeration + knapsack selection that {!select_views} runs on
    an assumed workload — except the queries and their frequencies are
    {e observed}, not assumed. The output is a diff against the
    current catalog (add / keep / drop per view) plus a cost-model
    calibration table from the logged est-vs-actual row counts. *)

module Advisor : sig
  type verdict =
    | Add  (** Selected for the observed workload but not materialized. *)
    | Keep  (** Materialized and still earning its keep. *)
    | Drop  (** Materialized but not selected — budget better spent elsewhere. *)

  type recommendation = {
    rec_view : string;
    rec_verdict : verdict;
    rec_est_edges : float;
        (** Estimated size (the knapsack weight); [0.] when the view
            was not among the replayed workload's candidates. *)
    rec_value : float;  (** Knapsack value (frequency-weighted improvement). *)
    rec_hits : int;  (** Logged queries this view actually answered. *)
  }

  type calibration = {
    cal_target : string;  (** View name, or [""] for the base graph. *)
    cal_queries : int;  (** Logged runs contributing to the ratio. *)
    cal_ratio : float;
        (** Geometric mean of actual/estimated rows at the plan root —
            1.0 is a perfect cost model. *)
    cal_suspect : bool;  (** Ratio outside [\[0.5, 2\]]. *)
  }

  type advice = {
    workload : (string * int) list;
        (** Distinct logged queries (canonical text) with frequencies,
            most frequent first. *)
    replayed : int;  (** Log records that entered the replay. *)
    skipped : int;  (** Records whose query text no longer parses. *)
    budget_edges : int;
    selection : Selection.t;  (** The full knapsack trace behind the verdicts. *)
    recommendations : recommendation list;  (** Adds, then keeps, then drops. *)
    calibration : calibration list;
  }

  val advise : ?budget_edges:int -> ?records:Kaskade_obs.Qlog.record list -> t -> advice
  (** Replay [records] (default: the process query log,
      [Qlog.records ()] — pass [Qlog.load]ed records to advise on a
      workload captured elsewhere) under [budget_edges] (default: the
      current base graph's edge count, the paper's "storage comparable
      to the graph itself" operating point). Distinct queries are
      grouped by hash and their frequencies become
      [Selection.select]'s [query_weights], so a query asked 100 times
      pulls selection toward its views 100x harder than a one-off.
      Unparseable texts are skipped (counted), failed runs still count
      toward frequencies — demand is demand. *)

  val pp : Format.formatter -> advice -> unit
  val to_json : advice -> Kaskade_obs.Report.json
end

val breaker_states : t -> (string * Kaskade_util.Breaker.t) list
(** Circuit breakers with history (open, half-open, or closed with
    recorded failures), in catalog order — pristine views are
    omitted. *)

val base_ctx : t -> Kaskade_exec.Executor.ctx
(** The base graph's executor context — a {e live} context reading
    through the overlay (analytics state such as Q7's community labels
    lives here between queries, and is invalidated by updates). *)

val view_ctx : t -> string -> Kaskade_exec.Executor.ctx
(** Executor context of a materialized view (persistent per view
    until the view is refreshed, so a CALL pipeline like Q7 -> Q8
    behaves on views too). *)
