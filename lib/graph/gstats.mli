(** Graph data properties maintained for view-size estimation (paper
    §V-A): per-vertex-type cardinalities and out-degree distribution
    summaries (50th/90th/95th/100th percentile out-degree). *)

type type_summary = {
  type_name : string;
  count : int;  (** Vertices of this type. *)
  deg50 : int;
  deg90 : int;
  deg95 : int;
  deg100 : int;  (** Maximum out-degree. *)
  is_source : bool;  (** Domain of at least one edge type (the set
      [T_G] in the paper's Eq. 3). *)
}

type t

val compute : ?pool:Kaskade_util.Pool.t -> Graph.t -> t
(** Sorts each type's out-degree array once; subsequent percentile
    queries are O(log n). The per-type degree sweeps and the
    edge-type histogram fan out over [pool] (default
    {!Kaskade_util.Pool.default}); the result is identical at any
    pool width. *)

val total_vertices : t -> int
val total_edges : t -> int
val summaries : t -> type_summary list
val summary_of_type : t -> int -> type_summary

val out_degree_percentile : t -> vtype:int -> alpha:float -> int
(** Exact [alpha]-th percentile out-degree of the given vertex type
    (nearest rank). [alpha] in (0, 100]. *)

val global_out_degree_percentile : t -> alpha:float -> int
(** Percentile over all vertices — used for homogeneous graphs
    (Eq. 2). *)

val out_degree_mean : t -> vtype:int -> float
(** Mean out-degree of a vertex type (expected-case branching factor
    for the query cost model). *)

val global_out_degree_mean : t -> float

val out_degree_size_biased : t -> vtype:int -> float
(** Size-biased mean out-degree of a type, [E(d^2) / E(d)]: the
    expected out-degree of the vertex a uniformly random edge leads
    to — the branching factor of multi-hop exploration on skewed
    graphs (hubs are reached proportionally to their degree). 0 when
    the type has no edges. *)

val global_out_degree_size_biased : t -> float

val edge_type_count : t -> etype:int -> int
(** Edges of one edge type. *)

val out_degree_mean_for_etypes : t -> vtype:int -> etypes:int list -> float
(** Mean out-degree of a vertex type counting only the given edge
    types — the branching factor on a summarized graph before it is
    materialized. *)

val source_types : t -> int list
(** Vertex-type ids that are the domain of at least one edge type. *)

val pp : Format.formatter -> t -> unit
