(** Connectivity helpers: weakly-connected components, and the
    source/sink classification used by the paper's source-to-sink
    connector (Table I). *)

val components : Kaskade_graph.Graph.t -> Kaskade_util.Union_find.t
(** Weakly-connected components (edges treated as undirected). *)

val n_components : Kaskade_graph.Graph.t -> int

val components_sharded : Kaskade_graph.Shard.t -> Kaskade_util.Union_find.t
(** Same partition as {!components} on the graph the shards were built
    from: union-find is order-insensitive, so walking each edge once
    in shard-then-local order merges the same component sets. *)

val sources : Kaskade_graph.Graph.t -> int list
(** Vertices with no incoming edges. *)

val sinks : Kaskade_graph.Graph.t -> int list
(** Vertices with no outgoing edges. *)
