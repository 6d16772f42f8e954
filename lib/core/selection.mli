(** View selection (paper §V-B): a 0-1 knapsack over the candidate
    views of a query workload. Item weight = estimated view size
    (edges); item value = (sum over queries of
    [EvalCost(q) / EvalCost(q rewritten over v)]) divided by the
    view's creation cost; knapsack capacity = the space budget. *)

type solver = Branch_and_bound | Dp | Greedy

type candidate_report = {
  view : Kaskade_views.View.t;
  est_size : float;  (** Estimated edge count when materialized. *)
  creation_cost : float;
  improvement : float;  (** Summed cost ratio over applicable queries. *)
  value : float;  (** improvement / creation_cost. *)
  applicable_queries : int list;  (** Workload indices this view rewrites. *)
  chosen : bool;
}

type t = {
  reports : candidate_report list;  (** Every candidate, best value first. *)
  chosen : Kaskade_views.View.t list;
  budget_edges : int;
  total_weight : int;
  total_value : float;
}

val select :
  ?alpha:float ->
  ?solver:solver ->
  ?query_weights:float list ->
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  queries:Kaskade_query.Ast.t list ->
  budget_edges:int ->
  t
(** [alpha] (default 95, the paper's operating point) parameterizes
    the size estimator. [query_weights] scales each query's
    improvement contribution (the paper's frequency/importance
    extension); defaults to all 1. *)
