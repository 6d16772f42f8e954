let mining_rules =
  {|
% List membership, the one library predicate the rules call.
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

% =====================================================================
% Schema constraint mining rules (paper Listing 2).
% =====================================================================

% Bounded cycle-permitting variant used by the view templates: are
% K-length paths between types X and Y feasible over the schema?
% K must be bound (the query constraints bind it).
schemaKHopPath(X, Y, K) :-
  integer(K), K >= 1, schemaKHopPathStep(X, Y, K).
schemaKHopPathStep(X, Y, 1) :-
  schemaEdge(X, Y, _).
schemaKHopPathStep(X, Y, K) :-
  K > 1, schemaEdge(X, Z, _), K1 is K - 1,
  schemaKHopPathStep(Z, Y, K1).

% Generator variant for unconstrained enumeration (ablation): all
% schema K-hop paths with K up to MaxK.
schemaKHopPathUpTo(X, Y, MaxK, K) :-
  schemaVertex(X), schemaVertex(Y),
  between(1, MaxK, K), schemaKHopPath(X, Y, K).

% =====================================================================
% Query constraint mining rules (paper Listing 6).
% =====================================================================

% Hop counts realizable by a variable-length pattern edge.
queryKHopVariableLengthPath(X, Y, K) :-
  queryVariableLengthPath(X, Y, LOWER, UPPER),
  between(LOWER, UPPER, K).

% Hop counts realizable between two query vertices, chaining single
% edges and variable-length segments. A visited trail guards against
% cyclic MATCH patterns (no effect on acyclic ones).
queryKHopPath(X, Y, K) :- queryKHopPathT(X, Y, K, [X]).
queryKHopPathT(X, Y, 1, _) :- queryEdge(X, Y).
queryKHopPathT(X, Y, K, _) :- queryKHopVariableLengthPath(X, Y, K).
queryKHopPathT(X, Y, K, Trail) :-
  queryEdge(X, Z), not(member(Z, Trail)),
  queryKHopPathT(Z, Y, K1, [Z|Trail]), K is K1 + 1.
queryKHopPathT(X, Y, K, Trail) :-
  queryKHopVariableLengthPath(X, Z, K2), not(member(Z, Trail)),
  queryKHopPathT(Z, Y, K1, [Z|Trail]), K is K1 + K2.
|}

let view_templates =
  {|
% =====================================================================
% Connector view templates (paper Listing 3).
% =====================================================================

% K-hop connector between projected query vertices X and Y: feasible
% when the query realizes a K-hop path between them AND the schema
% admits K-hop paths between their types.
kHopConnector(X, Y, XTYPE, YTYPE, K) :-
  % query constraints
  queryVertexType(X, XTYPE),
  queryVertexType(Y, YTYPE),
  queryReturned(X), queryReturned(Y),
  queryKHopPath(X, Y, K),
  % schema constraints
  schemaKHopPath(XTYPE, YTYPE, K).

% =====================================================================
% Summarizer view templates (paper Listing 5, type-level filters).
% =====================================================================

% Keep exactly the vertex types the query mentions.
summarizerVertexInclusion(TYPES) :-
  setof(T, X^queryVertexType(X, T), TYPES).

% Drop edge types the query never traverses explicitly. Only safe when
% the query has no unlabeled or variable-length edges (which may
% traverse any type); the enumerator checks that side condition.
summarizerRemoveEdges(ETYPE_REMOVE) :-
  schemaEdge(_, _, ETYPE_REMOVE),
  not(queryEdgeType(_, _, ETYPE_REMOVE)).
|}

let all = mining_rules ^ view_templates

let unconstrained_templates =
  {|
% Ablation: view templates with the query constraints stripped —
% enumeration is driven purely by the schema, bounded by MaxK. This is
% the M^k space the paper's §IV argues constraint injection avoids.
kHopConnectorNoQuery(XTYPE, YTYPE, MaxK, K) :-
  schemaKHopPathUpTo(XTYPE, YTYPE, MaxK, K).
|}
