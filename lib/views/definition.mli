(** Defining queries for views. The paper defines a graph view as "the
    graph query Q to be executed against G" (§III-C) and Kaskade's
    workload analyzer "translates those views to Cypher and executes
    them against the graph to perform the actual materialization"
    (§V-B). This module produces that query text; the test suite
    checks that evaluating it returns exactly the edge set
    {!Materialize} builds. *)

val defining_query : View.t -> string option
(** The query whose result rows are the view's edges (for connectors:
    one row per contracted (src, dst) pair) or vertices (for
    inclusion summarizers). [None] for the removal summarizers, whose
    definition needs negation over types, which the query language
    does not have. *)
