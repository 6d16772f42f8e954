(** Pattern-order optimization — the slice of Neo4j's cost-based
    optimizer the paper relies on ("establishes a reasonable ordering
    between all vertex scans", §V-A). The executor evaluates patterns
    left-to-right starting from each pattern's first node; for queries
    written with an unselective head (e.g.
    [MATCH (a)-[:WRITES_TO]->(f:File)] — an all-vertex scan) a better
    plan anchors at the most selective node and expands outward.

    [optimize] rewrites each pattern chain to start at the node with
    the smallest estimated scan cardinality (a bound variable beats
    every scan; a labelled scan beats an unlabelled one), splitting the
    chain in two at the anchor with the left half reversed — the
    executor's shared-variable chaining then resumes from the bound
    anchor instead of rescanning. The result set is unchanged (property
    tested); only evaluation order differs. *)

val optimize :
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  Kaskade_query.Ast.t ->
  Kaskade_query.Ast.t

val anchor_position :
  Kaskade_graph.Gstats.t ->
  Kaskade_graph.Schema.t ->
  bound:(string -> bool) ->
  Kaskade_query.Ast.pattern ->
  int
(** Index (0-based, over the chain's nodes) of the chosen anchor. *)
