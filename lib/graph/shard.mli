(** Sharded CSR: partitioned storage for the billion-edge regime the
    paper targets (§I's 3.2B-vertex provenance graph). Vertices are
    partitioned into [S] shards by a pluggable policy; each shard
    stores a type-segmented CSR — the exact layout of {!Graph} — over
    its own dense {e local} vid space, in both directions.

    {2 Vid mapping}

    Every vertex keeps its global vid for the outside world. Internally
    [owner : global -> shard] and [local_id : global -> local] map into
    the shards, and each shard's [globals] array maps back. Locals are
    assigned in ascending global order, so iterating a shard's locals
    agrees with global vid order within that shard.

    {2 Cut-edge exchange}

    An adjacency entry whose far endpoint lives in another shard is a
    {e cut edge}. Its CSR slot stores [-(x+1)] where [x] indexes the
    shard's exchange — parallel arrays of [(owner shard, local vid)]
    pairs (the routing address a distributed deployment ships) plus a
    cached resolved global vid, so in-process boundary resolution is a
    single array read and cross-shard traffic stays countable
    ({!cut_edges}).

    All iteration contracts mirror {!Graph}: per (vertex, etype) runs
    are eid-ascending, untyped iteration walks etype runs in etype
    order, and the callbacks receive {e global} vids — a sharded graph
    is observationally identical to the single CSR it was built from
    (property-tested across generators, policies and shard counts). *)

(** [Hash] scatters vids with an avalanche mix — balanced shards,
    cut-edge-heavy. [Type_range] cuts the (vtype, vid)-ordered vertex
    sequence into [S] near-equal contiguous slices — most shards hold
    whole type ranges, so typed scans touch few shards and fewer edges
    cross. *)
type policy = Hash | Type_range

val policy_name : policy -> string
val policy_of_name : string -> policy
(** Inverse of {!policy_name}; raises [Invalid_argument] on unknown
    names. *)

type t

val of_graph : ?policy:policy -> shards:int -> Graph.t -> t
(** Shard an existing frozen graph — O(V + E). The graph's raw
    topology is only read (frozen graphs are never mutated); the
    per-shard CSRs are the only new structures. Properties stay with
    the graph. [policy] defaults to [Hash]; [shards] must be in
    [[1, 256]]. *)

val schema : t -> Schema.t
val policy : t -> policy
val n_shards : t -> int
val n_vertices : t -> int
val n_edges : t -> int

val cut_edges : t -> int
(** Out-direction adjacency entries whose destination lives in another
    shard. *)

val global_id : t -> shard:int -> int -> int
(** Global vid of a shard-local vid. *)

val shard_size : t -> int -> int
(** Vertices owned by the shard. *)

val shard_memory_words : t -> int -> int
(** Words held by one shard's CSR + exchange structures — the
    shard-linear-memory accounting of [bench shard]. *)

val memory_words : t -> int
(** Sum of {!shard_memory_words} over all shards. *)

(** {2 Global-vid reads (mirror {!Graph})} *)

val vertices_of_type : t -> int -> int array
(** Global candidates in ascending vid order — identical to
    [Graph.vertices_of_type] on the source graph, which is what keeps
    executor scan order (and therefore result bytes) independent of
    the shard count. Shared array, do not mutate. *)

val locals_of_type : t -> shard:int -> int -> int array
(** One shard's local vids of a vertex type, ascending — the per-shard
    candidate set of a shard-dispatched scan. Shared array. *)

val out_degree : t -> int -> int

val iter_out : t -> int -> (dst:int -> etype:int -> eid:int -> unit) -> unit
val iter_in : t -> int -> (src:int -> etype:int -> eid:int -> unit) -> unit
val iter_out_etype : t -> int -> etype:int -> (dst:int -> eid:int -> unit) -> unit
val iter_in_etype : t -> int -> etype:int -> (src:int -> eid:int -> unit) -> unit

val iter_edges : t -> (eid:int -> src:int -> dst:int -> etype:int -> unit) -> unit
(** Every edge exactly once (as its source shard's out-entry), in
    shard-then-local order — {e not} global eid order. For
    order-insensitive consumers (union-find connectivity, counting). *)

(** {2 Shard-parallel scan} *)

val typed_scan : ?pool:Kaskade_util.Pool.t -> t -> etype:int -> int * int
(** Walk every (source-typed vertex, [etype]) adjacency run, shard by
    shard, each shard's candidate array fanned out over the pool as
    work-stealing morsels. Returns [(rows, checksum)]: [rows] counts
    adjacency entries, [checksum] folds the resolved global
    destination vids — both are invariant across shard counts and pool
    widths, and equal to a single-CSR walk, iff the partitioned layout
    preserves the adjacency relation. The kernel [bench shard] times,
    the [bench smoke] typed_scan gate runs, and test_shard's identity
    cases check. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: shard count, policy, sizes, cut edges, per-shard
    volumes. *)
