(** Connectivity helpers: weakly-connected components, and
    source/sink classification. *)

val components : Kaskade_graph.Graph.t -> Kaskade_util.Union_find.t
(** Weakly-connected components (edges treated as undirected). *)

val n_components : Kaskade_graph.Graph.t -> int

val sources : Kaskade_graph.Graph.t -> int list
(** Vertices with no incoming edges. *)

val sinks : Kaskade_graph.Graph.t -> int list
(** Vertices with no outgoing edges. *)
