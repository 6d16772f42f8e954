(** Incremental view maintenance — the extension the paper defers to
    its lineage (Zhuge & Garcia-Molina, ICDE'98; Szárnyas's IVM survey
    in PAPERS.md): absorb a {e batch} of base-graph updates into a
    materialized view without re-running the view's traversals over
    the whole graph.

    The entry points take the base graph {b after} the batch has been
    applied (i.e. [Graph.Overlay.graph] of the mutated overlay) plus
    the op list that got it there, and produce a refreshed
    [Materialize.materialized] equal to re-materializing from scratch:

    - {b k-hop connectors} (any k >= 1): the only (src, dst) pairs
      whose exact-k path set can change are those whose source reaches
      a changed edge's tail within k-1 backward hops — on the {e union}
      of the old and new graphs, so paths that existed only before a
      delete are covered. Each affected source's exact-k reach is
      recomputed and diffed against the view, yielding an explicit
      {!delta}. O(affected region), not O(graph).
    - {b filter summarizers} (vertex/edge inclusion/removal): updates
      map 1:1 through the filter. Because a delete removes the first
      live matching instance in eid order and [Subgraph.restrict]
      preserves eid order, the refreshed view is {e identical} — edge
      order and properties included — to a full re-materialization.
    - a connector carrying path counts falls back to a {b flagged
      full rebuild} — the strategy says so, and the caller can surface
      it (EXPLAIN, metrics).

    Connector maintenance assumes the catalog's standard
    materialization flags (deduped pairs, no path counts); a view
    carrying a [paths] edge property is rebuilt instead. *)

type delta = {
  added : (int * int) list;
      (** Connector pairs to create, as (src, dst) in {e base-graph}
          ids, sorted; deduplicated against the view. *)
  removed : (int * int) list;
      (** Connector pairs whose last supporting path died, same
          encoding. (Formerly smuggled through [added] by
          [delta_of_delete] — the record is now explicit.) *)
}

(** How a refresh was (or would be) performed. *)
type strategy =
  | Connector_delta of delta  (** Pair-diff apply on a k-hop connector. *)
  | Filter_delta of { kept_inserts : int; kept_deletes : int }
      (** Ops passed through a vertex/edge filter; counts are the ops
          that survived the filter. *)
  | Full_rebuild of { reason : string }
      (** The delta is not expressible; re-materialized from scratch. *)

val incremental : strategy -> bool
(** [false] exactly for {!Full_rebuild}. *)

val describe_strategy : strategy -> string
(** One-line human-readable form, e.g.
    ["delta(+3/-1 pairs)"] or ["rebuild: connector carries path counts"]. *)

val connector_delta :
  Kaskade_graph.Graph.t ->
  view:Materialize.materialized ->
  ops:Kaskade_graph.Graph.Overlay.op list ->
  delta
(** [connector_delta base_after ~view ~ops] — the explicit pair delta
    for a k-hop connector view. Raises [Invalid_argument] when [view]
    is not a k-hop connector. *)

val plan :
  Kaskade_graph.Graph.t ->
  view:Materialize.materialized ->
  ops:Kaskade_graph.Graph.Overlay.op list ->
  strategy
(** The strategy {!refresh} would use, without building anything
    (connector planning still runs the affected-region traversals). *)

val refresh :
  ?pool:Kaskade_util.Pool.t ->
  ?budget:Kaskade_util.Budget.t ->
  Kaskade_graph.Graph.t ->
  view:Materialize.materialized ->
  ops:Kaskade_graph.Graph.Overlay.op list ->
  Materialize.materialized * strategy
(** [refresh ?pool ?budget base_after ~view ~ops] — the refreshed view
    plus the strategy used. Result invariant (property tested): the
    returned view is result-identical to
    [Materialize.materialize base_after view.view] — same vertex set,
    same edge multiset, same properties; byte-identical for filter
    summarizers. [pool] is forwarded to [Materialize.materialize] on
    the rebuild path.

    [budget] is checked before any work (stage [Refresh]); the
    full-rebuild path forwards it to [Materialize.materialize] (which
    checkpoints per source traversal, stage [Materialize]) and the
    incremental paths charge their delta size afterwards. This
    function is the ["maintain.refresh"] fault-injection site: an
    armed fault makes it raise before touching the view, so a failed
    refresh never publishes a half-built graph. *)
