(** Path counting — ground truth for the paper's view-size estimators
    (§V-A: "the number of edges in a k-hop connector over a graph G
    equals the number of k-length paths in G"). *)

val count_k_walks : Graph.t -> k:int -> float
(** Exact number of directed k-edge walks (1^T A^k 1), computed by k
    sparse matrix-vector products in O(k (V + E)). For small k on
    sparse graphs this coincides closely with the simple-path count
    the paper estimates (walks revisiting a vertex require short
    cycles). Returned as float: counts overflow 63 bits on power-law
    graphs for moderate k. *)

val count_k_walks_between :
  Graph.t -> k:int -> src_type:int -> dst_type:int -> float
(** k-edge walks starting at a vertex of [src_type] and ending at one
    of [dst_type] — the edge count of a typed k-hop connector with
    path multiplicity. *)

val count_2hop_pairs :
  Graph.t -> src_type:int -> dst_type:int -> int
(** Number of *distinct* (u, w) pairs of the given types connected by
    a 2-hop path — the edge count of a deduplicated 2-hop connector.
    O(sum over mid vertices of in-deg * out-deg) time but deduplicated
    via a per-source hash set. *)

val count_simple_paths_bounded :
  Graph.t -> k:int -> limit:int -> int
(** Exact simple (vertex-disjoint) directed k-path count by bounded
    DFS enumeration; stops and returns [limit] once [limit] paths are
    found. Exponential — use on small graphs (tests, ground truth). *)
