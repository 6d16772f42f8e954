(** Cardinality-based query cost model — the stand-in for Neo4j's
    cost-based optimizer that the paper uses as its
    [EvalCost(q)] proxy (§V-A). The cost of a query is the sum of
    estimated intermediate result sizes along its MATCH pipeline:
    label scans cost the label cardinality; each single-hop expand
    multiplies by the source type's mean out-degree; a [*lo..hi]
    expand multiplies by [sum over h in lo..hi of deg^h]. Relational
    stages (WHERE / GROUP BY) add a pass over their input. *)

type estimate = {
  total_cost : float;  (** Sum of operator output cardinalities. *)
  match_rows : float;  (** Estimated rows out of the MATCH pipeline. *)
}

val eval_cost :
  ?deg_override:(string -> float option) ->
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  Kaskade_query.Ast.t ->
  float
(** [(estimate ...).total_cost]. *)

val equality_probe :
  Kaskade_query.Ast.expr -> string -> (string * Kaskade_graph.Value.t) option
(** Top-level conjunctive [var.prop = literal] in a WHERE expression —
    the predicate shape the executor serves with an index probe.
    Exposed so plan building and execution agree on the access path. *)

val plan :
  ?deg_override:(string -> float option) ->
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  Kaskade_query.Ast.t ->
  Kaskade_obs.Explain.node
(** Operator tree of the query as the executor will run it, each node
    annotated with this cost model's estimated output cardinality.
    Pass the {e optimized} query (see {!Planner.optimize}) to see the
    plan that actually executes; {!Executor.explain} does exactly
    that. Estimates are per-operator running cardinalities — the same
    numbers {!estimate} sums into [total_cost] — so a profiled run can
    be read as estimated-vs-actual per operator. *)
