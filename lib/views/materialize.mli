(** Turn view descriptors into physical graphs (the paper's "view
    creation": §II executes enumerated views against the raw graph to
    materialize them).

    Connector outputs contain only the connector's endpoint vertex
    types (properties copied) plus the contracted-edge type named by
    [View.connector_edge_type]. Summarizer outputs keep the original
    types they preserve. *)

type materialized = {
  view : View.t;
  graph : Kaskade_graph.Graph.t;
  new_of_old : int array;
      (** Original vertex id -> id in the view graph, or [-1] when the
          vertex does not appear. *)
  build_cost : float;
      (** Edges examined while materializing — the I/O-proportional
          creation cost of §V-A. *)
}

val materialize :
  ?dedupe:bool ->
  ?with_path_counts:bool ->
  ?pool:Kaskade_util.Pool.t ->
  ?budget:Kaskade_util.Budget.t ->
  Kaskade_graph.Graph.t ->
  View.t ->
  materialized
(** [dedupe] (default [true]) collapses parallel contracted paths into
    one connector edge; with [with_path_counts] the surviving edge
    carries the path multiplicity in an integer [paths] property.
    [dedupe:false] keeps one edge per path — faithful to the paper's
    size analysis, but exponential on dense graphs; prefer counting
    via [Kaskade_graph.Paths] for sizes.

    [pool] (default {!Kaskade_util.Pool.default}) fans the per-source
    traversals of connector views out over its domains. Parallelism is
    {b deterministic}: per-chunk edge buffers are replayed into the
    output builder in chunk order, so the materialized graph is
    byte-identical to a sequential ([Pool.create ~domains:1 ()]) run
    at every pool width.

    [budget] makes the build cooperative: a forced check before work
    starts, one [Budget.step] per connector source traversal (on every
    worker domain — the budget is shared, racy but monotone), and the
    structural cost of summarizers charged as a lump. Exhaustion
    raises [Kaskade_util.Budget.Exhausted] with stage [Materialize];
    this module is also the ["materialize"] fault-injection site. *)

val k_hop_connector :
  ?dedupe:bool ->
  ?with_path_counts:bool ->
  ?pool:Kaskade_util.Pool.t ->
  ?budget:Kaskade_util.Budget.t ->
  Kaskade_graph.Graph.t ->
  src_type:string ->
  dst_type:string ->
  k:int ->
  materialized
(** Direct entry point for the connector the paper's experiments use. *)
