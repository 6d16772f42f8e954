(** Bounded traversals over a frozen graph — the primitives behind the
    paper's anchored queries: blast radius (Q1), ancestors (Q2),
    descendants (Q3). *)

type dir = Out | In | Both

val bfs_levels : Kaskade_graph.Graph.t -> src:int -> ?dir:dir -> ?max_hops:int -> unit -> int array
(** Hop distance from [src] per vertex ([-1] = unreached). [max_hops]
    defaults to unbounded. *)

val reachable_within :
  Kaskade_graph.Graph.t -> src:int -> max_hops:int -> ?dir:dir -> unit -> int list
(** Distinct vertices at distance 1..[max_hops] from [src] (excludes
    [src] itself unless reachable via a cycle). Order: ascending id. *)

val descendants : Kaskade_graph.Graph.t -> src:int -> max_hops:int -> int list
(** Forward data lineage (paper Q3): [reachable_within] over out-edges. *)

val ancestors : Kaskade_graph.Graph.t -> src:int -> max_hops:int -> int list
(** Backward data lineage (paper Q2): [reachable_within] over in-edges. *)

val endpoints_in_range :
  Kaskade_graph.Graph.t -> src:int -> lo:int -> hi:int -> ?dir:dir -> unit -> (int * int) list
(** [(vertex, hop_distance)] for every vertex whose BFS distance d
    satisfies [lo <= d <= hi]. Distinct-endpoint semantics for
    variable-length path expansion. [lo = 0] includes [src]. *)

val max_timestamp_paths :
  Kaskade_graph.Graph.t -> src:int -> max_hops:int -> prop:string -> (int * int) list
(** Paper Q4 ("path lengths"): BFS the forward [max_hops]-hop
    neighbourhood; for each reached vertex report the maximum value of
    the integer edge property [prop] along its BFS tree path. *)
