(** View-size estimation (paper §V-A). The size of a view is its edge
    count when materialized; for a k-hop connector that is the number
    of k-length paths, estimated from vertex cardinalities and
    out-degree percentiles:

    - Eq. 1 (Erdos-Renyi): [C(n, k+1) * (m / C(n, 2))^k] — kept as the
      baseline the paper shows underestimates real graphs by orders of
      magnitude.
    - Eq. 2 (homogeneous): [n * deg_alpha^k].
    - Eq. 3 (heterogeneous): [sum over source types t of
      n_t * deg_alpha(t)^k].

    [typed_chain] refines Eq. 3 for a *typed* connector by walking the
    schema's k-step type paths from the source type and multiplying
    the per-type percentile degrees along each path. *)

val erdos_renyi : n:int -> m:int -> k:int -> float
(** Eq. 1. Computed in log space; 0 when [n < k+1] or [m = 0]. *)

val homogeneous : Kaskade_graph.Gstats.t -> k:int -> alpha:float -> float
(** Eq. 2 over the global out-degree distribution. *)

val heterogeneous : Kaskade_graph.Gstats.t -> k:int -> alpha:float -> float
(** Eq. 3 over per-type distributions (source types only). *)

val estimate_paths : Kaskade_graph.Gstats.t -> k:int -> alpha:float -> float
(** Dispatch: Eq. 2 when the graph is homogeneous, Eq. 3 otherwise. *)

val typed_chain :
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  src_type:string ->
  dst_type:string ->
  k:int ->
  alpha:float ->
  float
(** [n_src * sum over schema k-paths src~>dst of (product of
    deg_alpha(intermediate types))]. 0 when no schema path exists. *)

val creation_cost :
  Kaskade_graph.Gstats.t -> Kaskade_graph.Schema.t -> alpha:float -> Kaskade_views.View.t -> float
(** I/O-proportional view creation cost (§V-A): proportional to the
    estimated view size for connectors; one scan of the graph for
    summarizers. *)

val view_size :
  Kaskade_graph.Gstats.t -> Kaskade_graph.Schema.t -> alpha:float -> Kaskade_views.View.t -> float
(** Estimated materialized edge count for any view (summarizers use
    type cardinalities). *)
