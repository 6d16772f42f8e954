(** Query evaluation over a frozen graph — the execution-engine half
    of the Neo4j substitution. Evaluates MATCH pattern pipelines
    (typed scans, typed expands, variable-length expansion), WHERE
    filters, SELECT projections and GROUP BY aggregation, and CALL
    procedures (label propagation, largest community).

    Variable-length semantics: Cypher enumerates trails, whose count
    is exponential; what the paper's queries consume after GROUP BY is
    the set of distinct endpoints. The default
    {!Distinct_endpoints} mode therefore expands a [*lo..hi] edge by
    BFS and emits each reachable endpoint once (with its hop
    distance); {!All_trails} enumerates trails exactly and is intended
    for small graphs and ground-truth tests. *)

type mode = Distinct_endpoints | All_trails

type ctx
(** Execution context: graph, mode, and mutable analytics state
    (community labels written by Q7, read by Q8). *)

type result =
  | Table of Row.table
  | Affected of int  (** CALL procedures that update state report how
      many entities they touched. *)

val create :
  ?mode:mode ->
  ?planner:bool ->
  ?pool:Kaskade_util.Pool.t ->
  Kaskade_graph.Graph.t ->
  ctx
(** [planner] (default false) runs [Planner.optimize] on every query
    before evaluation — same results, anchored at the most selective
    node. [pool] is forwarded to the lazily computed graph statistics
    ([Gstats.compute]); the facade plumbs one pool through
    materialization, statistics and refresh so parallelism is decided
    in one place. *)

val create_live :
  ?mode:mode ->
  ?planner:bool ->
  ?pool:Kaskade_util.Pool.t ->
  Kaskade_graph.Graph.Overlay.t ->
  ctx
(** A context that reads {e through} the overlay: every entry point
    first checks [Graph.Overlay.version] and, when the overlay moved,
    swaps in a fresh snapshot ([Graph.Overlay.graph] — cached by the
    overlay, so clean overlays cost nothing) and invalidates derived
    caches (statistics, property indexes, community labels). Queries
    therefore always observe the latest applied batch. *)

val graph : ctx -> Kaskade_graph.Graph.t
(** The graph the next query will run against (the current overlay
    snapshot for live contexts). *)

val mode : ctx -> mode

val run : ?budget:Kaskade_util.Budget.t -> ctx -> Kaskade_query.Ast.t -> result
(** Raises [Analyze.Semantic_error] on invalid queries and
    [Invalid_argument] on unknown CALL procedures.

    [budget] bounds the evaluation cooperatively: one
    [Kaskade_util.Budget.step] per scanned start vertex, per
    variable-length frontier expansion and per trail-DFS visit, one
    [add_rows] per binding row produced, and a forced deadline check
    before any work starts. An exceeded budget raises
    [Kaskade_util.Budget.Exhausted] with stage [Execute], leaving the
    context reusable. *)

val run_string : ctx -> string -> result
(** Parse then {!run}. *)

val explain : ctx -> Kaskade_query.Ast.t -> Kaskade_obs.Explain.node
(** The operator tree the executor would run for this query — after
    the semantic check and (when this context has the planner enabled)
    the anchor-choosing planner pass — annotated with the cost model's
    estimated per-operator cardinalities. Execution does not happen. *)

val run_explained :
  ?profile:bool ->
  ?budget:Kaskade_util.Budget.t ->
  ctx ->
  Kaskade_query.Ast.t ->
  result * Kaskade_obs.Explain.node
(** {!run} plus the plan of {!explain}. With [profile] (default
    false), the executor additionally fills each operator's actual
    output rows and wall time into the returned tree: per pattern, per
    MATCH filter and per SELECT stage (filter, aggregate or project,
    distinct, sort, limit).
    Profiling only observes — the result is identical to {!run}
    (property tested in [test_obs]). Within a pattern the scan/expand
    operators are fused into one pipeline: they report actual rows
    (successful bindings) but their wall time is accounted to the
    enclosing Pattern operator. Reported times are inclusive of child
    operators. *)

val table_exn : result -> Row.table
(** Raises [Invalid_argument] when the result is not a table. *)

(** Supported CALL procedures:
    - [algo.labelPropagation(passes)] — synchronous label propagation;
      stores labels in the context; returns [Affected |V|].
    - [algo.largestCommunity(type_name)] — vertices of the largest
      community, sized by members of [type_name] (pass [""] to count
      all); returns a table [(vertex, label)]. *)
