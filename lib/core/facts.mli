(** Explicit-constraint extraction (paper §IV-A1): transform the query
    and the graph schema into Prolog facts. For the running example
    (Listing 1) this produces exactly the facts the paper shows —
    [queryVertex/1], [queryVertexType/2], [queryEdge/2],
    [queryEdgeType/3], [queryVariableLengthPath/4], plus
    [queryReturned/1] marking projected vertices (the paper's §IV-B
    restricts connector endpoints to "the only vertices projected out
    of the MATCH clause"), and [schemaVertex/1] / [schemaEdge/3] from
    the schema. *)

val query_facts :
  Kaskade_graph.Schema.t -> Kaskade_query.Ast.t -> Kaskade_prolog.Term.t list
(** Facts for one query. Untyped pattern variables receive the
    schema's vertex type when it is unique (homogeneous graphs). *)

val schema_facts : Kaskade_graph.Schema.t -> Kaskade_prolog.Term.t list

val assert_all : Kaskade_prolog.Db.t -> Kaskade_prolog.Term.t list -> unit
