module Facts = Facts
module Rules = Rules
module Enumerate = Enumerate
module Estimator = Estimator
module Selection = Selection
module Rewrite = Rewrite
module Error = Error

open Kaskade_graph
open Kaskade_views
open Kaskade_exec
module Breaker = Kaskade_util.Breaker
module Budget = Kaskade_util.Budget
module Pool = Kaskade_util.Pool
module Store = Kaskade_store.Store
module Wal = Kaskade_store.Wal

let log_src = Logs.Src.create "kaskade" ~doc:"Kaskade view selection and rewriting"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Explain = Kaskade_obs.Explain
module Metrics = Kaskade_obs.Metrics
module Report = Kaskade_obs.Report
module Trace = Kaskade_obs.Trace
module Tracectx = Kaskade_obs.Tracectx
module Qlog = Kaskade_obs.Qlog
module Trace_export = Kaskade_obs.Trace_export

let m_view_hits =
  Metrics.counter ~help:"Queries answered via a materialized view" "kaskade.view_hits"

let m_view_misses =
  Metrics.counter ~help:"Queries answered on the base graph" "kaskade.view_misses"

let h_query_seconds =
  Metrics.histogram ~help:"End-to-end Kaskade.query wall time (seconds)" "kaskade.query_seconds"

(* The same latency, split by how the query was answered — a view-hit
   p95 buried in an aggregate histogram is invisible next to base-graph
   fallbacks that run orders of magnitude longer. *)
let h_query_hit_seconds =
  Metrics.histogram ~help:"Kaskade.query wall time, queries answered via a view (seconds)"
    "kaskade.query_seconds.view_hit"

let h_query_fallback_seconds =
  Metrics.histogram ~help:"Kaskade.query wall time, queries answered on the base graph (seconds)"
    "kaskade.query_seconds.fallback"

let h_query_timeout_seconds =
  Metrics.histogram ~help:"Wall time spent by queries aborted on budget exhaustion (seconds)"
    "kaskade.query_seconds.timeout"

let m_view_refreshes =
  Metrics.counter ~help:"Materialized view refreshes (incremental or rebuild)"
    "kaskade.view_refreshes"

let g_stale_views =
  Metrics.gauge ~help:"Catalog entries currently not Fresh" "kaskade.stale_views"

let h_refresh_seconds =
  Metrics.histogram ~help:"Per-view refresh wall time (seconds)" "kaskade.refresh_seconds"

let m_query_timeouts =
  Metrics.counter ~help:"Queries aborted by budget exhaustion (deadline/step/row cap)"
    "kaskade.query_timeouts"

let m_refresh_failures =
  Metrics.counter ~help:"View refresh attempts that failed (view returned to Stale)"
    "kaskade.refresh_failures"

let m_breaker_open =
  Metrics.counter ~help:"Per-view circuit breaker open transitions" "kaskade.breaker_open"

let m_fallback_runs =
  Metrics.counter
    ~help:"Queries a quarantined (breaker-open) view could have served, answered on the base graph"
    "kaskade.fallback_runs"

let m_plan_cache_hits =
  Metrics.counter ~help:"Queries routed from the plan cache (planning skipped)"
    "kaskade.plan_cache_hits"

let m_plan_cache_misses =
  Metrics.counter ~help:"Queries planned from scratch (plan cache cold, stale, or unusable)"
    "kaskade.plan_cache_misses"

let m_plan_cache_invalidations =
  Metrics.counter ~help:"Plan-cache flushes caused by graph or catalog changes"
    "kaskade.plan_cache_invalidations"

let g_plan_cache_entries =
  Metrics.gauge ~help:"Live plan-cache entries" "kaskade.plan_cache_entries"

type run_target = Raw | Via_view of string

module Config = struct
  type t = {
    alpha : float;
    mode : Executor.mode;
    pool : Pool.t option;
    auto_refresh : bool;
    compact_threshold : float;
    breaker_threshold : int;
    breaker_cooldown_s : float;
    plan_cache : bool;
    data_dir : string option;
    fsync_policy : Wal.fsync_policy;
    snapshot_every : int;
  }

  let default =
    {
      alpha = 95.0;
      mode = Executor.Distinct_endpoints;
      pool = None;
      auto_refresh = true;
      compact_threshold = 0.25;
      breaker_threshold = 3;
      breaker_cooldown_s = 30.0;
      plan_cache = true;
      data_dir = None;
      fsync_policy = Wal.Always;
      snapshot_every = 512;
    }
end

(* One cached routing decision: everything [run]'s planning phase
   (repair scan, per-view rewrite + costing, pick) would recompute for
   a repeat of the same canonical query text, so a hit goes straight
   to the executor. [cp_epoch] ties the entry to the catalog/graph
   state it was planned under. *)
type cached_plan = {
  cp_target : run_target;
  cp_executed : Kaskade_query.Ast.t;  (* the rewriting for Via_view, the original for Raw *)
  cp_fingerprint : string;  (* plan-shape fingerprint of the planned run *)
  cp_epoch : int;
  mutable cp_hits : int;
}

and t = {
  overlay : Graph.Overlay.t;
  schema : Schema.t;
  catalog : Catalog.t;
  alpha : float;
  mode : Executor.mode;
  pool : Pool.t option;
  auto_refresh : bool;
  compact_threshold : float;
  ctxs : (string, Executor.ctx) Hashtbl.t;  (* "" = base graph *)
  view_stats : (string, Gstats.t) Hashtbl.t;
  mutable base_stats : (int * Gstats.t) option;  (* keyed by overlay version *)
  mutable last_selection : Selection.t option;
  breakers : (string, Breaker.t) Hashtbl.t;  (* per-view, keyed by view name *)
  breaker_threshold : int;
  breaker_cooldown_s : float;
  plan_cache : (string, cached_plan) Hashtbl.t;  (* keyed by Qlog.hash_query *)
  plan_cache_enabled : bool;
  mutable plan_epoch : int;  (* bumped on every graph/catalog change *)
  mutable store : Store.t option;  (* durability layer, when data_dir is set *)
}

let make ?(config = Config.default) graph =
  let t =
  {
    overlay = Graph.Overlay.create graph;
    schema = Graph.schema graph;
    catalog = Catalog.create ();
    alpha = config.Config.alpha;
    mode = config.Config.mode;
    pool = config.Config.pool;
    auto_refresh = config.Config.auto_refresh;
    compact_threshold = config.Config.compact_threshold;
    ctxs = Hashtbl.create 8;
    view_stats = Hashtbl.create 8;
    base_stats = None;
    last_selection = None;
    breakers = Hashtbl.create 8;
    breaker_threshold = config.Config.breaker_threshold;
    breaker_cooldown_s = config.Config.breaker_cooldown_s;
    plan_cache = Hashtbl.create 16;
    plan_cache_enabled = config.Config.plan_cache;
    plan_epoch = 0;
    store = None;
  }
  in
  (match config.Config.data_dir with
  | None -> ()
  | Some dir ->
    let store =
      Store.open_ ~fsync_policy:config.Config.fsync_policy
        ~snapshot_every:config.Config.snapshot_every dir
    in
    (* A data dir without a snapshot gets a seq-0 snapshot of the
       seed graph right away: the WAL records only deltas, so without
       this anchor {!recover} could never rebuild the base. *)
    if Store.snapshot_seq store < 0 then
      ignore (Store.write_snapshot store ~graph ~views:[]);
    t.store <- Some store);
  t

(* Any graph or catalog change makes every cached routing decision
   suspect — a view may newly apply, stop applying, or have different
   statistics — so the whole cache is dropped and the epoch moves on
   (belt and braces: a resurrected key can never revive a stale
   entry). *)
let invalidate_plans t =
  t.plan_epoch <- t.plan_epoch + 1;
  (* Gauges are process-global, so only zero the entry gauge when this
     facade actually dropped entries: an instance that never cached
     (plan cache disabled, or nothing stored yet) must not erase the
     count published by a sibling instance in the same process. *)
  if Hashtbl.length t.plan_cache > 0 then begin
    Metrics.incr m_plan_cache_invalidations;
    Hashtbl.reset t.plan_cache;
    Metrics.set_gauge g_plan_cache_entries 0.0
  end

(* The cache only serves (and only fills) when the catalog is settled:
   with stale views under [auto_refresh] every run must reach [repair]
   — retrying failed refreshes and half-open breaker probes — so
   caching around it would freeze degradation. *)
let plan_cache_usable t =
  t.plan_cache_enabled && not (t.auto_refresh && Catalog.n_stale t.catalog > 0)

let plan_cache_lookup t key =
  if not (plan_cache_usable t) then None
  else
    match Hashtbl.find_opt t.plan_cache key with
    | Some cp when cp.cp_epoch = t.plan_epoch -> Some cp
    | _ -> None

let plan_cache_store t key ~target ~executed ~fingerprint =
  if plan_cache_usable t then begin
    Hashtbl.replace t.plan_cache key
      {
        cp_target = target;
        cp_executed = executed;
        cp_fingerprint = fingerprint;
        cp_epoch = t.plan_epoch;
        cp_hits = 0;
      };
    Metrics.set_gauge g_plan_cache_entries (float_of_int (Hashtbl.length t.plan_cache))
  end

let graph t = Graph.Overlay.graph t.overlay
let overlay t = t.overlay
let version t = Graph.Overlay.version t.overlay
let schema t = t.schema

let stats t =
  let v = Graph.Overlay.version t.overlay in
  match t.base_stats with
  | Some (v', s) when v' = v -> s
  | _ ->
    let s = Gstats.compute ?pool:t.pool (graph t) in
    t.base_stats <- Some (v, s);
    s

let catalog t = t.catalog
let store t = t.store

(* Durability -------------------------------------------------------- *)

let catalog_views t =
  List.map
    (fun (e : Catalog.entry) -> (e.Catalog.materialized, e.Catalog.freshness))
    (Catalog.entries t.catalog)

let snapshot t =
  match t.store with
  | None -> invalid_arg "Kaskade.snapshot: no data_dir configured"
  | Some s -> Store.write_snapshot s ~graph:(graph t) ~views:(catalog_views t)

let maybe_snapshot t =
  match t.store with
  | Some s when Store.should_snapshot s ->
    let path = Store.write_snapshot s ~graph:(graph t) ~views:(catalog_views t) in
    Log.info (fun k -> k "snapshot cadence reached: wrote %s" path)
  | _ -> ()

let parse = Kaskade_query.Qparser.parse

let base_ctx t =
  match Hashtbl.find_opt t.ctxs "" with
  | Some ctx -> ctx
  | None ->
    let ctx =
      Executor.create_live ~mode:t.mode ~planner:true ?pool:t.pool t.overlay
    in
    Hashtbl.add t.ctxs "" ctx;
    ctx

let ctx_for t name g =
  match Hashtbl.find_opt t.ctxs name with
  | Some ctx -> ctx
  | None ->
    let ctx =
      Executor.create ~mode:t.mode ~planner:true ?pool:t.pool g
    in
    Hashtbl.add t.ctxs name ctx;
    ctx

let view_ctx t name =
  match Catalog.find_by_name t.catalog name with
  | Some entry -> ctx_for t name entry.Catalog.materialized.Materialize.graph
  | None -> raise Not_found

let stats_for_view t name g =
  match Hashtbl.find_opt t.view_stats name with
  | Some s -> s
  | None ->
    let s = Gstats.compute ?pool:t.pool g in
    Hashtbl.add t.view_stats name s;
    s

(* Refreshing (or re-materializing) view [name] invalidates its
   executor context and statistics. *)
let drop_view_caches t name =
  Hashtbl.remove t.ctxs name;
  Hashtbl.remove t.view_stats name

let update_stale_gauge t =
  Metrics.set_gauge g_stale_views (float_of_int (Catalog.n_stale t.catalog))

(* Per-view circuit breaker, created lazily (Closed) on first use. *)
let breaker_for t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
    let b = Breaker.create ~threshold:t.breaker_threshold ~cooldown_s:t.breaker_cooldown_s () in
    Hashtbl.add t.breakers name b;
    b

(* A quarantined view is one whose breaker refuses refresh attempts:
   it stays Stale, so the planner (which refuses non-Fresh views)
   transparently routes its queries to the base graph. *)
let quarantined t name = not (Breaker.allow (breaker_for t name))

let breaker_states t =
  List.filter_map
    (fun (e : Catalog.entry) ->
      let name = View.name e.Catalog.materialized.Materialize.view in
      match Hashtbl.find_opt t.breakers name with
      | Some b when Breaker.state b <> Breaker.Closed || Breaker.failures b > 0 ->
        Some (name, b)
      | _ -> None)
    (Catalog.entries t.catalog)

let enumerate_views ?budget t q = Enumerate.enumerate ?budget t.schema q

let select_views ?solver ?query_weights t ~queries ~budget_edges =
  let sel =
    Selection.select ~alpha:t.alpha ?solver ?query_weights (stats t) t.schema ~queries
      ~budget_edges
  in
  Log.info (fun k ->
      k "selection over %d queries (budget %d edges): chose [%s], weight %d"
        (List.length queries) budget_edges
        (String.concat "; " (List.map View.name sel.Selection.chosen))
        sel.Selection.total_weight);
  t.last_selection <- Some sel;
  sel

let materialize t view =
  match Catalog.find t.catalog view with
  | Some entry when entry.Catalog.freshness = Catalog.Fresh -> entry
  | _ ->
    let m = Materialize.materialize ?pool:t.pool (graph t) view in
    Log.info (fun k ->
        k "materialized %s: %d vertices, %d edges (cost %.0f)" (View.name view)
          (Graph.n_vertices m.Materialize.graph)
          (Graph.n_edges m.Materialize.graph)
          m.Materialize.build_cost);
    Catalog.add t.catalog m;
    drop_view_caches t (View.name view);
    invalidate_plans t;
    update_stale_gauge t;
    Option.get (Catalog.find t.catalog view)

let materialize_selected t (sel : Selection.t) = List.map (materialize t) sel.Selection.chosen

(* Updates & refresh ------------------------------------------------- *)

type refresh_outcome = {
  refreshed_view : string;
  refresh_strategy : Maintain.strategy;
  refresh_ops : int;
  refresh_seconds : float;
}

(* One refresh attempt on one entry, with the full failure protocol:

   - a breaker-open (quarantined) view is skipped outright — it stays
     Stale and the planner routes around it until the cooldown admits
     a half-open probe;
   - on success the breaker resets;
   - on failure the entry transitions [Rebuilding -> Stale ops]
     ([Catalog.abort_refresh]) so the pending delta survives and the
     catalog never wedges, the failure is metered and charged to the
     breaker, and the exception is swallowed ([swallow], the
     degradation path of [run]) or rethrown as [Error.Refresh_error]
     (the explicit [Update.refresh_views] path);
   - budget exhaustion is the {e query's} deadline, not the view's
     fault: the entry is restored but the breaker is not charged, and
     the exception always propagates. *)
let refresh_entry ?budget ~swallow t (entry : Catalog.entry) =
  let name = View.name entry.Catalog.materialized.Materialize.view in
  if quarantined t name then begin
    Log.debug (fun k -> k "skipping refresh of %s: circuit breaker open" name);
    None
  end
  else begin
    let ops = Catalog.begin_refresh entry in
    if ops = [] then None
    else begin
      let t0 = Trace.now_s () in
      let base_after = graph t in
      match
        Maintain.refresh ?pool:t.pool ?budget base_after ~view:entry.Catalog.materialized ~ops
      with
      | m, strategy ->
        Catalog.finish_refresh t.catalog entry m;
        Breaker.record_success (breaker_for t name);
        drop_view_caches t name;
        invalidate_plans t;
        let dt = Trace.now_s () -. t0 in
        Metrics.incr m_view_refreshes;
        Metrics.observe h_refresh_seconds dt;
        update_stale_gauge t;
        Log.info (fun k ->
            k "refreshed %s in %.3fs via %s (%d ops)" name dt
              (Maintain.describe_strategy strategy)
              (List.length ops));
        Some
          {
            refreshed_view = name;
            refresh_strategy = strategy;
            refresh_ops = List.length ops;
            refresh_seconds = dt;
          }
      | exception e ->
        Catalog.abort_refresh entry ops;
        drop_view_caches t name;
        invalidate_plans t;
        (match e with
        | Budget.Exhausted _ -> raise e
        | _ ->
          Metrics.incr m_refresh_failures;
          if Breaker.record_failure (breaker_for t name) then begin
            Metrics.incr m_breaker_open;
            Log.warn (fun k ->
                k "circuit breaker opened for %s after %d consecutive failures (cooldown %.0fs)"
                  name t.breaker_threshold t.breaker_cooldown_s)
          end;
          let reason = Printexc.to_string e in
          Log.warn (fun k -> k "refresh of %s failed: %s" name reason);
          if swallow then None
          else raise (Error.Refresh_error { view = name; reason }))
    end
  end

let refresh_views ?budget ?names t =
  let selected =
    match names with
    | None -> Catalog.entries t.catalog
    | Some names ->
      List.map
        (fun n ->
          match Catalog.find_by_name t.catalog n with
          | Some e -> e
          | None -> raise Not_found)
        names
  in
  List.filter_map (refresh_entry ?budget ~swallow:false t) selected

(* Every query-answering entry point funnels through here: with
   [auto_refresh] stale views are repaired before planning; without
   it they are left stale and the planner skips them. Refresh
   {e failures} are swallowed (the view stays quarantined/stale and
   the query degrades to the base graph); budget exhaustion still
   propagates. *)
let repair ?budget t =
  if t.auto_refresh && Catalog.n_stale t.catalog > 0 then
    List.filter_map (refresh_entry ?budget ~swallow:true t) (Catalog.entries t.catalog)
  else []

let apply_ops t ops =
  (* WAL-before-apply: the *requested* batch is made durable before
     the overlay sees it. Replay is deterministic — applying the same
     requested ops to the same state yields the same effective ops —
     so logging requests rather than effects is sound, and a crash
     between append and apply merely replays a batch that never took
     effect. *)
  (match t.store with
  | Some s when ops <> [] -> ignore (Store.append s ops)
  | _ -> ());
  let effective = Graph.Overlay.apply t.overlay ops in
  Catalog.mark_stale t.catalog effective;
  if effective <> [] then invalidate_plans t;
  update_stale_gauge t;
  if Graph.Overlay.needs_compact ~threshold:t.compact_threshold t.overlay then begin
    Log.info (fun k ->
        k "compacting overlay (ratio %.3f over threshold %.3f)"
          (Graph.Overlay.overlay_ratio t.overlay)
          t.compact_threshold);
    ignore (Graph.Overlay.compact t.overlay)
  end;
  maybe_snapshot t;
  effective

module Update = struct
  type op = Graph.Overlay.op =
    | Insert_vertex of { vtype : string; props : (string * Value.t) list }
    | Insert_edge of { src : int; dst : int; etype : string; props : (string * Value.t) list }
    | Delete_edge of { src : int; dst : int; etype : string }

  let pp_op = Graph.Overlay.pp_op

  let insert_vertex t ~vtype ?(props = []) () =
    (* This path bypasses [apply_ops] (it must return the new id), so
       it carries its own WAL-before-apply step. *)
    (match t.store with
    | Some s -> ignore (Store.append s [ Insert_vertex { vtype; props } ])
    | None -> ());
    let id = Graph.Overlay.insert_vertex t.overlay ~vtype ~props () in
    Catalog.mark_stale t.catalog [ Insert_vertex { vtype; props } ];
    invalidate_plans t;
    update_stale_gauge t;
    maybe_snapshot t;
    id

  let batch ops t = ignore (apply_ops t ops)
  let refresh_views = refresh_views

  let freshness t =
    List.map
      (fun (e : Catalog.entry) ->
        (View.name e.Catalog.materialized.Materialize.view, e.Catalog.freshness))
      (Catalog.entries t.catalog)
end

(* Planning ---------------------------------------------------------- *)

(* Every materialized view priced against [q]: the rewriting and its
   estimated cost over the view's own stats, or [None] when the view
   cannot answer the query — including when it is not [Fresh]: a
   stale view may be missing (or wrongly containing) exactly the
   edges the query asks about, so the planner refuses it outright. *)
let eval_candidates t q =
  let raw_cost = Cost.eval_cost (stats t) t.schema q in
  let cands =
    List.map
      (fun (entry : Catalog.entry) ->
        let view = entry.Catalog.materialized.Materialize.view in
        if entry.Catalog.freshness <> Catalog.Fresh then (entry, None)
        else
          match Rewrite.rewrite t.schema q view with
          | Some rw ->
            let vg = entry.Catalog.materialized.Materialize.graph in
            let vstats = stats_for_view t (View.name view) vg in
            let cost = Cost.eval_cost vstats (Graph.schema vg) rw.Rewrite.rewritten in
            (entry, Some (rw, cost))
          | None -> (entry, None))
      (Catalog.entries t.catalog)
  in
  (raw_cost, cands)

(* Lowest rewritten cost strictly below the raw cost; first entry wins
   ties (catalog order is materialization order). *)
let pick_best raw_cost cands =
  List.fold_left
    (fun best (entry, outcome) ->
      match outcome with
      | Some (rw, cost) when cost < raw_cost -> begin
        match best with
        | Some (_, _, best_cost) when best_cost <= cost -> best
        | _ -> Some (rw, entry, cost)
      end
      | _ -> best)
    None cands

let best_rewriting t q =
  ignore (repair t);
  let raw_cost, cands = eval_candidates t q in
  Option.map (fun (rw, entry, _) -> (rw, entry)) (pick_best raw_cost cands)

let run_raw ?budget t q = Executor.run ?budget (base_ctx t) q

let run_on_view ?budget t name q =
  match Catalog.find_by_name t.catalog name with
  | Some entry ->
    (match entry.Catalog.freshness with
    | Catalog.Fresh -> ()
    | _ when t.auto_refresh ->
      ignore (refresh_entry ?budget ~swallow:false t entry);
      (match entry.Catalog.freshness with
      | Catalog.Fresh -> ()
      | _ ->
        raise
          (Error.Refresh_error { view = name; reason = "quarantined by open circuit breaker" }))
    | f ->
      invalid_arg
        (Printf.sprintf "Kaskade.query: view %s is %s; refresh it first" name
           (Catalog.freshness_label f)));
    Executor.run ?budget (view_ctx t name) q
  | None -> raise Not_found

(* When the planner settles on the base graph, record whether a
   quarantined view was the reason: some non-fresh entry whose breaker
   is open could have rewritten this query. That is the degradation
   the breaker bought — visible as [kaskade.fallback_runs]. *)
let note_fallback t q cands =
  let lost_to_quarantine =
    List.exists
      (fun ((entry : Catalog.entry), _) ->
        let view = entry.Catalog.materialized.Materialize.view in
        entry.Catalog.freshness <> Catalog.Fresh
        && quarantined t (View.name view)
        && Rewrite.rewrite t.schema q view <> None)
      cands
  in
  if lost_to_quarantine then Metrics.incr m_fallback_runs

let result_rows = function
  | Executor.Table tbl -> Row.n_rows tbl
  | Executor.Affected n -> n

(* Telemetry tail shared by [run] and [profile]: the outcome-split
   latency histograms plus one {!Qlog} record per query — the canonical
   query text is [Pretty.to_string] output, which re-parses, so the
   advisor can replay the log through enumeration + selection. Failure
   paths log too ([plan] absent when planning itself failed). *)
let log_query ?budget ?plan t0 q ~outcome ~rows =
  let dt = Trace.now_s () -. t0 in
  Metrics.observe h_query_seconds dt;
  (match outcome with
  | Qlog.View_hit _ -> Metrics.observe h_query_hit_seconds dt
  | Qlog.Fallback -> Metrics.observe h_query_fallback_seconds dt
  | Qlog.Failed _ -> ());
  ignore
    (Qlog.add
       ?budget:(Option.map Budget.describe budget)
       ?plan
       ~query:(Kaskade_query.Pretty.to_string q)
       ~outcome ~rows ~seconds:dt ())

let log_failure ?budget t0 q e =
  (match e with
  | Budget.Exhausted _ ->
    Metrics.incr m_query_timeouts;
    Metrics.observe h_query_timeout_seconds (Trace.now_s () -. t0)
  | _ -> ());
  match Error.of_exn e with
  | Some err -> log_query ?budget t0 q ~outcome:(Qlog.Failed (Error.label err)) ~rows:0
  | None -> ()

(* Cold planning, shared by [run]'s cache-miss path and [profile]:
   repair stale views, rewrite and cost every candidate, route to the
   cheapest fresh view (else the base graph), bump the routing
   counters and execute. [run_explained] rather than [run] even
   unprofiled: same execution, but the (cheap, already-costed) plan
   tree comes back for the query log's plan fingerprint. *)
type cold = {
  c_result : Executor.result;
  c_target : run_target;
  c_executed : Kaskade_query.Ast.t;
  c_plan : Explain.node;
  c_raw_cost : float;
  c_cands : (Catalog.entry * (Rewrite.rewriting * float) option) list;
  c_refreshes : refresh_outcome list;
}

let plan_and_run ~profile ?budget t q =
  let refreshes = repair ?budget t in
  let raw_cost, cands = eval_candidates t q in
  let target, ctx, executed =
    match pick_best raw_cost cands with
    | Some (rw, entry, _) ->
      let name = View.name entry.Catalog.materialized.Materialize.view in
      Log.debug (fun k ->
          k "answering via %s: %s" name (Kaskade_query.Pretty.to_string rw.Rewrite.rewritten));
      Metrics.incr m_view_hits;
      (Via_view name, view_ctx t name, rw.Rewrite.rewritten)
    | None ->
      Log.debug (fun k -> k "no materialized view helps; answering on the base graph");
      Metrics.incr m_view_misses;
      note_fallback t q cands;
      (Raw, base_ctx t, q)
  in
  let result, plan = Executor.run_explained ~profile ?budget ctx executed in
  { c_result = result; c_target = target; c_executed = executed; c_plan = plan;
    c_raw_cost = raw_cost; c_cands = cands; c_refreshes = refreshes }

let run ?budget t q =
  let t0 = Trace.now_s () in
  (* The cache key is the same FNV-1a hash of the canonical query text
     that groups qlog records — two spellings of one canonical query
     share an entry. *)
  let key = Qlog.hash_query (Kaskade_query.Pretty.to_string q) in
  let body () =
    Budget.check budget Budget.Plan;
    match plan_cache_lookup t key with
    | Some cp ->
      (* Warm path: the repair scan, per-view rewrite + costing, and
         pick are all skipped — epoch validity guarantees the catalog
         has not changed since this routing was planned. *)
      Metrics.incr m_plan_cache_hits;
      cp.cp_hits <- cp.cp_hits + 1;
      let ctx =
        match cp.cp_target with
        | Via_view name ->
          Metrics.incr m_view_hits;
          view_ctx t name
        | Raw ->
          Metrics.incr m_view_misses;
          base_ctx t
      in
      let result, plan = Executor.run_explained ~profile:false ?budget ctx cp.cp_executed in
      ((result, cp.cp_target), plan)
    | None ->
      Metrics.incr m_plan_cache_misses;
      let c = plan_and_run ~profile:false ?budget t q in
      plan_cache_store t key ~target:c.c_target ~executed:c.c_executed
        ~fingerprint:(Qlog.fingerprint c.c_plan);
      ((c.c_result, c.c_target), c.c_plan)
  in
  (* Inherit the serving layer's request context, or mint one for a
     direct facade call — every span under [body] and the qlog record
     then share one trace id. *)
  Tracectx.with_minted (fun _trace ->
      match body () with
      | ((result, target) as out), plan ->
        let outcome = match target with Via_view v -> Qlog.View_hit v | Raw -> Qlog.Fallback in
        log_query ?budget ~plan t0 q ~outcome ~rows:(result_rows result);
        out
      | exception e ->
        log_failure ?budget t0 q e;
        raise e)

(* EXPLAIN / PROFILE ------------------------------------------------- *)

type view_candidate = {
  cand_view : string;
  cand_edges : int;
  cand_cost : float option;
  cand_freshness : Catalog.freshness;
  cand_refresh : string option;
  cand_breaker : string option;
}

type report = {
  target : run_target;
  raw_cost : float;
  executed : Kaskade_query.Ast.t;
  candidates : view_candidate list;
  refreshes : refresh_outcome list;
  enum_candidates : string list;
  enum_inference_steps : int;
  selection : Selection.t option;
  budget : string option;
  plan_cache : string option;
  plan : Explain.node;
}

(* Cache state for the report: what a [run] of this query would do
   right now. [None] when the cache is disabled. *)
let plan_cache_state t q =
  if not t.plan_cache_enabled then None
  else
    let key = Qlog.hash_query (Kaskade_query.Pretty.to_string q) in
    match plan_cache_lookup t key with
    | Some cp ->
      Some
        (Printf.sprintf "warm (%d hit%s, plan %s)" cp.cp_hits
           (if cp.cp_hits = 1 then "" else "s")
           cp.cp_fingerprint)
    | None -> Some "cold"

let make_report ?budget t q ~target ~raw_cost ~cands ~refreshes ~executed ~plan =
  (* Report building is observability, so the enumeration below runs
     outside the caller's budget — a PROFILE whose query just fit its
     deadline still gets its report. *)
  let e = Enumerate.enumerate t.schema q in
  let base_after = graph t in
  {
    target;
    raw_cost;
    executed;
    candidates =
      List.map
        (fun ((entry : Catalog.entry), outcome) ->
          let name = View.name entry.Catalog.materialized.Materialize.view in
          let refresh_decision =
            match entry.Catalog.freshness with
            | Catalog.Fresh -> None
            | _ when quarantined t name -> Some "quarantined (breaker open)"
            | Catalog.Stale ops ->
              Some
                (Maintain.describe_strategy
                   (Maintain.plan base_after ~view:entry.Catalog.materialized ~ops))
            | Catalog.Rebuilding -> Some "refresh in flight"
          in
          let breaker =
            match Hashtbl.find_opt t.breakers name with
            | Some b when Breaker.state b <> Breaker.Closed || Breaker.failures b > 0 ->
              Some (Breaker.describe b)
            | _ -> None
          in
          {
            cand_view = name;
            cand_edges = Graph.n_edges entry.Catalog.materialized.Materialize.graph;
            cand_cost = Option.map snd outcome;
            cand_freshness = entry.Catalog.freshness;
            cand_refresh = refresh_decision;
            cand_breaker = breaker;
          })
        cands;
    refreshes;
    enum_candidates =
      List.map (fun (c : Enumerate.candidate) -> View.name c.Enumerate.view) e.Enumerate.candidates;
    enum_inference_steps = e.Enumerate.inference_steps;
    selection = t.last_selection;
    budget = Option.map Budget.describe budget;
    plan_cache = plan_cache_state t q;
    plan;
  }

let explain ?budget t q =
  (* Read-only: stale views are reported (with the refresh strategy a
     repair would use), never repaired. [budget] is reported, not
     consumed — EXPLAIN does no graph work worth charging. *)
  let raw_cost, cands = eval_candidates t q in
  match pick_best raw_cost cands with
  | Some (rw, entry, _) ->
    let name = View.name entry.Catalog.materialized.Materialize.view in
    let plan = Executor.explain (view_ctx t name) rw.Rewrite.rewritten in
    make_report ?budget t q ~target:(Via_view name) ~raw_cost ~cands ~refreshes:[]
      ~executed:rw.Rewrite.rewritten ~plan
  | None ->
    let plan = Executor.explain (base_ctx t) q in
    make_report ?budget t q ~target:Raw ~raw_cost ~cands ~refreshes:[] ~executed:q ~plan

let profile ?budget t q =
  let t0 = Trace.now_s () in
  let body () =
    Budget.check budget Budget.Plan;
    let c = plan_and_run ~profile:true ?budget t q in
    ( c.c_result,
      make_report ?budget t q ~target:c.c_target ~raw_cost:c.c_raw_cost ~cands:c.c_cands
        ~refreshes:c.c_refreshes ~executed:c.c_executed ~plan:c.c_plan )
  in
  Tracectx.with_minted (fun _trace ->
      match body () with
      | (result, report) as out ->
        let outcome =
          match report.target with Via_view v -> Qlog.View_hit v | Raw -> Qlog.Fallback
        in
        log_query ?budget ~plan:report.plan t0 q ~outcome ~rows:(result_rows result);
        out
      | exception e ->
        log_failure ?budget t0 q e;
        raise e)

let pp_report ppf r =
  let open Format in
  (match r.target with
  | Raw -> fprintf ppf "target: base graph (no materialized view helps)@,"
  | Via_view v -> fprintf ppf "target: materialized view %s@," v);
  fprintf ppf "query: %s@," (Kaskade_query.Pretty.to_string r.executed);
  fprintf ppf "raw-graph cost: %.6g@," r.raw_cost;
  (match r.budget with
  | Some b -> fprintf ppf "budget: %s@," b
  | None -> ());
  (match r.plan_cache with
  | Some s -> fprintf ppf "plan cache: %s@," s
  | None -> ());
  if r.refreshes <> [] then begin
    fprintf ppf "refreshed before planning:@,";
    List.iter
      (fun o ->
        fprintf ppf "  %-32s %s in %.3fs (%d ops)@," o.refreshed_view
          (Maintain.describe_strategy o.refresh_strategy)
          o.refresh_seconds o.refresh_ops)
      r.refreshes
  end;
  if r.candidates = [] then fprintf ppf "rewrite candidates: none materialized@,"
  else begin
    fprintf ppf "rewrite candidates:@,";
    List.iter
      (fun c ->
        let chosen =
          match r.target with Via_view v when String.equal v c.cand_view -> "  <- chosen" | _ -> ""
        in
        let freshness =
          match c.cand_freshness with
          | Catalog.Fresh -> ""
          | f -> begin
            match c.cand_refresh with
            | Some d -> Printf.sprintf " [%s; would %s]" (Catalog.freshness_label f) d
            | None -> Printf.sprintf " [%s]" (Catalog.freshness_label f)
          end
        in
        let freshness =
          match c.cand_breaker with
          | Some b -> Printf.sprintf "%s [breaker: %s]" freshness b
          | None -> freshness
        in
        match c.cand_cost with
        | Some cost ->
          fprintf ppf "  %-32s %10d edges   est. cost %.6g%s%s@," c.cand_view c.cand_edges cost
            freshness chosen
        | None -> fprintf ppf "  %-32s %10d edges   not applicable%s@," c.cand_view c.cand_edges freshness)
      r.candidates
  end;
  fprintf ppf "enumeration: %d candidate views, %d inference steps@,"
    (List.length r.enum_candidates) r.enum_inference_steps;
  (match r.selection with
  | Some s ->
    fprintf ppf "selection: chose %d of %d candidates, %d of %d budget edges@,"
      (List.length s.Selection.chosen)
      (List.length s.Selection.reports)
      s.Selection.total_weight s.Selection.budget_edges
  | None -> ());
  fprintf ppf "plan:@,%s" (Explain.render r.plan)

let report_to_string r =
  Format.asprintf "@[<v>%a@]" pp_report r

let selection_json (s : Selection.t) =
  let open Report in
  Obj
    [
      ("budget_edges", Int s.Selection.budget_edges);
      ("total_weight", Int s.Selection.total_weight);
      ("total_value", num s.Selection.total_value);
      ("chosen", List (List.map (fun v -> Str (View.name v)) s.Selection.chosen));
      ( "candidates",
        List
          (List.map
             (fun (c : Selection.candidate_report) ->
               Obj
                 [
                   ("view", Str (View.name c.Selection.view));
                   ("est_size", num c.Selection.est_size);
                   ("creation_cost", num c.Selection.creation_cost);
                   ("improvement", num c.Selection.improvement);
                   ("value", num c.Selection.value);
                   ("chosen", Bool c.Selection.chosen);
                 ])
             s.Selection.reports) );
    ]

let report_json r =
  let open Report in
  Obj
    [
      ( "target",
        match r.target with
        | Raw -> Obj [ ("kind", Str "raw") ]
        | Via_view v -> Obj [ ("kind", Str "view"); ("view", Str v) ] );
      ("raw_cost", num r.raw_cost);
      ("query", Str (Kaskade_query.Pretty.to_string r.executed));
      ("budget", match r.budget with Some b -> Str b | None -> Null);
      ("plan_cache", match r.plan_cache with Some s -> Str s | None -> Null);
      ( "refreshes",
        List
          (List.map
             (fun o ->
               Obj
                 [
                   ("view", Str o.refreshed_view);
                   ("strategy", Str (Maintain.describe_strategy o.refresh_strategy));
                   ("incremental", Bool (Maintain.incremental o.refresh_strategy));
                   ("ops", Int o.refresh_ops);
                   ("seconds", num o.refresh_seconds);
                 ])
             r.refreshes) );
      ( "rewrite_candidates",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("view", Str c.cand_view);
                   ("edges", Int c.cand_edges);
                   ("est_cost", match c.cand_cost with Some x -> num x | None -> Null);
                   ("freshness", Str (Catalog.freshness_label c.cand_freshness));
                   ( "refresh_decision",
                     match c.cand_refresh with Some d -> Str d | None -> Null );
                   ("breaker", match c.cand_breaker with Some b -> Str b | None -> Null);
                 ])
             r.candidates) );
      ( "enumeration",
        Obj
          [
            ("candidates", List (List.map (fun v -> Str v) r.enum_candidates));
            ("inference_steps", Int r.enum_inference_steps);
          ] );
      ("selection", match r.selection with Some s -> selection_json s | None -> Null);
      ("plan", Explain.to_json r.plan);
    ]

(* Advisor ----------------------------------------------------------- *)

module Advisor = struct
  type verdict = Add | Keep | Drop

  type recommendation = {
    rec_view : string;
    rec_verdict : verdict;
    rec_est_edges : float;  (* estimator's size = knapsack weight; 0 when not a candidate *)
    rec_value : float;
    rec_hits : int;  (* logged queries this view actually answered *)
  }

  type calibration = {
    cal_target : string;  (* view name, or "" for the base graph *)
    cal_queries : int;
    cal_ratio : float;  (* geometric mean of actual/estimated root rows *)
    cal_suspect : bool;  (* ratio outside [0.5, 2] — cost model drifting *)
  }

  type advice = {
    workload : (string * int) list;  (* canonical query text, frequency; descending *)
    replayed : int;
    skipped : int;  (* log records whose text no longer parses *)
    budget_edges : int;
    selection : Selection.t;
    recommendations : recommendation list;
    calibration : calibration list;
  }

  let verdict_label = function Add -> "add" | Keep -> "keep" | Drop -> "drop"

  (* Frequency-weighted replay: the log's distinct queries (by hash, so
     two spellings of the same canonical text coincide) become the
     [queries] of a fresh enumeration + knapsack selection, each
     weighted by how often it was asked — the paper's
     frequency/importance extension, fed by observation instead of an
     assumed workload. *)
  let advise ?budget_edges ?records t =
    let records = match records with Some r -> r | None -> Qlog.records () in
    let budget_edges =
      match budget_edges with Some b -> b | None -> Graph.n_edges (graph t)
    in
    (* Group by query hash, keeping the first text seen and a count. *)
    let tbl : (string, string * int ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (r : Qlog.record) ->
        match Hashtbl.find_opt tbl r.Qlog.query_hash with
        | Some (_, n) -> incr n
        | None ->
          Hashtbl.add tbl r.Qlog.query_hash (r.Qlog.query, ref 1);
          order := r.Qlog.query_hash :: !order)
      records;
    let grouped =
      List.rev_map (fun h -> Hashtbl.find tbl h) !order
      |> List.map (fun (text, n) -> (text, !n))
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let parsed, skipped =
      List.fold_left
        (fun (ok, skipped) (text, n) ->
          match parse text with
          | q -> ((q, text, n) :: ok, skipped)
          | exception _ -> (ok, skipped + n))
        ([], 0) grouped
    in
    let parsed = List.rev parsed in
    let queries = List.map (fun (q, _, _) -> q) parsed in
    let query_weights = List.map (fun (_, _, n) -> float_of_int n) parsed in
    let sel =
      if queries = [] then
        Selection.select ~alpha:t.alpha (stats t) t.schema ~queries:[] ~budget_edges
      else
        Selection.select ~alpha:t.alpha ~query_weights (stats t) t.schema ~queries ~budget_edges
    in
    (* Verdicts: the selection says which views the observed workload
       wants; the catalog says which are materialized. *)
    let chosen = List.map View.name sel.Selection.chosen in
    let materialized =
      List.map
        (fun (e : Catalog.entry) -> View.name e.Catalog.materialized.Materialize.view)
        (Catalog.entries t.catalog)
    in
    let hits name =
      List.length
        (List.filter
           (fun (r : Qlog.record) -> match r.Qlog.outcome with
             | Qlog.View_hit v -> String.equal v name
             | _ -> false)
           records)
    in
    let report_for name =
      List.find_opt
        (fun (c : Selection.candidate_report) -> String.equal (View.name c.Selection.view) name)
        sel.Selection.reports
    in
    let recommend name verdict =
      let est_edges, value =
        match report_for name with
        | Some c -> (c.Selection.est_size, c.Selection.value)
        | None -> (0.0, 0.0)
      in
      { rec_view = name; rec_verdict = verdict; rec_est_edges = est_edges; rec_value = value;
        rec_hits = hits name }
    in
    let adds =
      List.filter_map
        (fun v -> if List.mem v materialized then None else Some (recommend v Add))
        chosen
    in
    let keeps =
      List.filter_map
        (fun v -> if List.mem v materialized then Some (recommend v Keep) else None)
        chosen
    in
    let drops =
      List.filter_map
        (fun v -> if List.mem v chosen then None else Some (recommend v Drop))
        materialized
    in
    (* Cost-model calibration: per execution target, the geometric mean
       of actual/estimated rows at the plan root across logged runs.
       Geometric, because cardinality errors are multiplicative. *)
    let cal_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (r : Qlog.record) ->
        match (r.Qlog.outcome, r.Qlog.operators) with
        | Qlog.Failed _, _ | _, [] -> ()
        | outcome, root :: _ -> (
          match root.Qlog.est_rows with
          | Some est when est > 0.0 && r.Qlog.rows > 0 ->
            let target = match outcome with Qlog.View_hit v -> v | _ -> "" in
            let ratio = float_of_int r.Qlog.rows /. est in
            let log_sum, n =
              Option.value ~default:(0.0, 0) (Hashtbl.find_opt cal_tbl target)
            in
            Hashtbl.replace cal_tbl target (log_sum +. Float.log ratio, n + 1)
          | _ -> ()))
      records;
    let calibration =
      Hashtbl.fold
        (fun target (log_sum, n) acc ->
          let ratio = Float.exp (log_sum /. float_of_int n) in
          { cal_target = target; cal_queries = n; cal_ratio = ratio;
            cal_suspect = ratio < 0.5 || ratio > 2.0 }
          :: acc)
        cal_tbl []
      |> List.sort (fun a b -> compare a.cal_target b.cal_target)
    in
    {
      workload = List.map (fun (_, text, n) -> (text, n)) parsed;
      replayed = List.length records - skipped;
      skipped;
      budget_edges;
      selection = sel;
      recommendations = adds @ keeps @ drops;
      calibration;
    }

  let pp ppf a =
    let open Format in
    fprintf ppf "advisor: replayed %d logged queries (%d distinct%s), budget %d edges@,"
      a.replayed (List.length a.workload)
      (if a.skipped > 0 then Printf.sprintf ", %d skipped" a.skipped else "")
      a.budget_edges;
    fprintf ppf "workload:@,";
    List.iter (fun (text, n) -> fprintf ppf "  %4dx  %s@," n text) a.workload;
    if a.recommendations = [] then fprintf ppf "recommendations: none@,"
    else begin
      fprintf ppf "recommendations:@,";
      List.iter
        (fun r ->
          fprintf ppf "  %-4s %-32s value %.6g, est. %.0f edges, %d logged hits@,"
            (verdict_label r.rec_verdict) r.rec_view r.rec_value r.rec_est_edges r.rec_hits)
        a.recommendations
    end;
    if a.calibration <> [] then begin
      fprintf ppf "cost-model calibration (actual/estimated rows, geometric mean):@,";
      List.iter
        (fun c ->
          fprintf ppf "  %-32s %.3g over %d queries%s@,"
            (if c.cal_target = "" then "(base graph)" else c.cal_target)
            c.cal_ratio c.cal_queries
            (if c.cal_suspect then "  <- drifting" else ""))
        a.calibration
    end


  let to_json a =
    let open Report in
    Obj
      [
        ("replayed", Int a.replayed);
        ("skipped", Int a.skipped);
        ("budget_edges", Int a.budget_edges);
        ( "workload",
          List
            (List.map
               (fun (text, n) -> Obj [ ("query", Str text); ("count", Int n) ])
               a.workload) );
        ( "recommendations",
          List
            (List.map
               (fun r ->
                 Obj
                   [
                     ("view", Str r.rec_view);
                     ("verdict", Str (verdict_label r.rec_verdict));
                     ("est_edges", num r.rec_est_edges);
                     ("value", num r.rec_value);
                     ("logged_hits", Int r.rec_hits);
                   ])
               a.recommendations) );
        ( "calibration",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("target", Str c.cal_target);
                     ("queries", Int c.cal_queries);
                     ("ratio", num c.cal_ratio);
                     ("suspect", Bool c.cal_suspect);
                   ])
               a.calibration) );
        ("selection", selection_json a.selection);
      ]
end

(* Typed-error parse entry point -------------------------------------- *)

let parse_result src = Error.guard (fun () -> parse src)

(* Unified entry point ------------------------------------------------ *)

type target = Auto | Base | View of string

let query ?(target = Auto) ?budget t q =
  match target with
  | Auto -> Error.guard (fun () -> run ?budget t q)
  | Base -> Error.guard (fun () -> (run_raw ?budget t q, Raw))
  | View name -> Error.guard (fun () -> (run_on_view ?budget t name q, Via_view name))

(* Crash recovery ----------------------------------------------------- *)

let recover ?(config = Config.default) dir =
  let r =
    Store.recover ~fsync_policy:config.Config.fsync_policy
      ~snapshot_every:config.Config.snapshot_every dir
  in
  (* Build the facade over the snapshot graph with the store detached:
     replaying the WAL tail below must not append the tail back onto
     the WAL. *)
  let t = make ~config:{ config with Config.data_dir = None } r.Store.r_graph in
  List.iter
    (fun ((m : Materialize.materialized), freshness) ->
      Catalog.add t.catalog m;
      match freshness with
      | Catalog.Fresh -> ()
      | f -> (
        match Catalog.find t.catalog m.Materialize.view with
        | Some entry -> entry.Catalog.freshness <- f
        | None -> ()))
    r.Store.r_views;
  List.iter
    (fun (seq, ops) ->
      (* Mirror the live path's partial application: [Overlay.apply]
         applies ops in order and raises on the failing one, so a
         batch that half-landed before the crash half-lands again. *)
      try
        let effective = Graph.Overlay.apply t.overlay ops in
        Catalog.mark_stale t.catalog effective
      with Invalid_argument msg ->
        Log.warn (fun k -> k "replay of WAL batch %d stopped early: %s" seq msg))
    r.Store.r_tail;
  invalidate_plans t;
  update_stale_gauge t;
  t.store <- Some r.Store.r_store;
  t
