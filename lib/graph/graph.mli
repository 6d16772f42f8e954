(** Frozen, immutable property graph in CSR (compressed sparse row)
    form — the in-memory execution substrate standing in for Neo4j's
    store. Both out- and in-adjacency are materialized so traversals
    run in either direction; edges keep their builder ids so
    properties survive freezing.

    Each vertex's adjacency segment is {e type-segmented}: sorted by
    edge type, with a per-(vertex, etype) offset index in both
    directions. Typed traversal — the hot path of every connector
    query (paper §VII) — therefore touches exactly the edges of the
    requested type ({!iter_out_etype} is O(deg of that type)), and
    {!typed_out_slice} exposes the contiguous run to callers that want
    to walk the arrays directly. Within one vertex, edges appear in
    (etype, insertion id) order. *)

type t

val freeze : Builder.t -> t
(** O(V + E). The builder may keep being used afterwards; the frozen
    graph shares property tables but copies topology. *)

val splice :
  t ->
  ?new_vertices:(int * (string * Value.t) list) array ->
  keep_eid:(int -> bool) ->
  add_edges:(int * int * int * (string * Value.t) list) array ->
  unit ->
  t
(** Array-level edge surgery, the fast path of incremental view
    maintenance ({!Kaskade_views.Maintain}): a new graph whose edges
    are this graph's edges with [keep_eid e = true], in eid order and
    renumbered compactly, followed by [add_edges] — [(src, dst, etype
    id, props)] — in order. [new_vertices] ([(vtype id, props)])
    append at ids [n_vertices], [n_vertices + 1], ... Edge properties
    follow their surviving edge. O(V + E) with array-copy constants —
    no Builder round-trip — and when [new_vertices] is empty the
    vertex arrays and property store are shared physically with the
    input (frozen graphs are never mutated, so sharing is safe).
    Raises [Invalid_argument] on out-of-range endpoints or type
    ids. *)

val schema : t -> Schema.t
val n_vertices : t -> int
val n_edges : t -> int

val vertex_type : t -> int -> int
val vertex_type_name : t -> int -> string
val vertices_of_type : t -> int -> int array
(** Shared array — do not mutate. *)

val vertices_of_type_name : t -> string -> int array
val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_out : t -> int -> (dst:int -> etype:int -> eid:int -> unit) -> unit
val iter_in : t -> int -> (src:int -> etype:int -> eid:int -> unit) -> unit

val iter_out_etype : t -> int -> etype:int -> (dst:int -> eid:int -> unit) -> unit
(** Out-edges restricted to one edge type — a contiguous slice walk,
    O(number of such edges), not a filter over the whole adjacency. *)

val iter_in_etype : t -> int -> etype:int -> (src:int -> eid:int -> unit) -> unit

val typed_out_slice : t -> int -> etype:int -> int * int
(** [(start, stop)] bounds of the vertex's type-[etype] run in the
    out-CSR: its type-[etype] out-edges sit at positions
    [start..stop-1]. *)

val typed_out_degree : t -> int -> etype:int -> int
val typed_in_degree : t -> int -> etype:int -> int

val iter_edges : t -> (eid:int -> src:int -> dst:int -> etype:int -> unit) -> unit
val edge_endpoints : t -> int -> int * int
val edge_type : t -> int -> int

val vprop : t -> int -> string -> Value.t option
val vprop_or_null : t -> int -> string -> Value.t
val eprop : t -> int -> string -> Value.t option
val eprop_or_null : t -> int -> string -> Value.t

val vertex_props : t -> int -> (string * Value.t) list
(** All properties of a vertex (sorted by name). O(#columns). *)

val edge_props : t -> int -> (string * Value.t) list
val edge_prop_keys : t -> string list

val out_degrees_of_type : t -> int -> int array
(** Fresh array: out-degree of every vertex of the given type, in
    vertex order — the raw input to the degree-percentile estimator. *)

val all_out_degrees : t -> int array

val internal_arrays : t -> int array * int array * int array * int array
(** [(vtype, e_src, e_dst, e_type)] — the raw topology arrays, shared
    physically (frozen graphs are never mutated). Feed of the snapshot
    codec ([Kaskade_store.Codec]); do not mutate. *)

val internal_props : t -> Props.t * Props.t
(** [(vertex props, edge props)], shared physically — same contract as
    {!internal_arrays}. *)

val of_arrays :
  Schema.t ->
  vtype:int array ->
  e_src:int array ->
  e_dst:int array ->
  e_type:int array ->
  vprops:Props.t ->
  eprops:Props.t ->
  t
(** Rebuild a frozen graph straight from raw topology arrays and
    property tables — the inverse of {!internal_arrays} +
    {!internal_props}, and the decode path of binary snapshots
    ([Kaskade_store.Codec.graph]). O(V + E); the arrays are taken by
    reference (frozen graphs are never mutated, so sharing is
    safe). *)

val pp_summary : Format.formatter -> t -> unit
(** One-line [|V|, |E|] plus per-type counts. *)

(** Delta overlay: a thin mutable layer of pending vertex inserts,
    edge inserts and edge deletes over a frozen CSR base — the update
    path the paper defers to future work (§IX). Reads merge the base's
    type-segmented slices with the overlay's per-vertex delta lists;
    when the overlay grows past a threshold, {!Overlay.compact}
    re-freezes everything into a new base.

    Id discipline:
    - Vertex ids are {e stable}: base vertices keep their ids forever,
      inserted vertices get ids [n_vertices base + i] and keep them
      across compaction. View catalogs may therefore hold
      [new_of_old] maps across updates.
    - Edge ids are stable {e between} compactions only: pending edges
      read as [n_edges base + i], and compaction renumbers all edges
      densely. Do not hold eids across {!Overlay.compact}.

    Vertex deletion is intentionally unsupported (it would either
    renumber ids — invalidating every catalog mapping — or leave typed
    tombstones visible to scans). Model vertex removal as deleting the
    vertex's edges, or use a vertex-removal summarizer view. *)
module Overlay : sig
  type graph := t

  type t

  (** One pending mutation. [Delete_edge] removes the first live
      matching [(src, dst, etype)] instance in edge-id order —
      multiset semantics, so repeated deletes peel off parallel
      edges one at a time. *)
  type op =
    | Insert_vertex of { vtype : string; props : (string * Value.t) list }
    | Insert_edge of { src : int; dst : int; etype : string; props : (string * Value.t) list }
    | Delete_edge of { src : int; dst : int; etype : string }

  val pp_op : Format.formatter -> op -> unit

  val create : graph -> t
  (** An empty overlay; reads pass straight through to the base. *)

  val base : t -> graph
  (** The frozen graph beneath the deltas (advances on {!compact}). *)

  val version : t -> int
  (** Bumped by every successful mutation. Caches keyed on the version
      (executor contexts, statistics) stay valid while it is equal. *)

  (** {2 Mutation} *)

  val insert_vertex : t -> vtype:string -> ?props:(string * Value.t) list -> unit -> int
  (** Returns the new vertex id ([n_vertices] before the insert).
      Raises [Invalid_argument] on an unknown vertex type. *)

  val insert_edge : t -> src:int -> dst:int -> etype:string -> ?props:(string * Value.t) list -> unit -> unit
  (** Schema-checked like [Builder.add_edge]: raises
      [Invalid_argument] when the edge type is unknown, an endpoint id
      is out of range, or domain/range do not match. *)

  val delete_edge : t -> src:int -> dst:int -> etype:string -> bool
  (** Delete the first live matching instance (base edges in eid
      order, then pending inserts in insertion order). [false] when no
      live instance matches (the overlay is unchanged). *)

  val apply : t -> op list -> op list
  (** Apply a batch in order and return the ops that took effect —
      failed deletes are dropped, so the result is exactly the delta
      the views must absorb ({!Kaskade_views.Maintain}). *)

  (** {2 Merged reads}

      Same contracts as the eponymous {!Graph} functions, with deleted
      base edges filtered out and pending edges appended after the
      base slice (in insertion order). *)

  val n_vertices : t -> int
  val n_edges : t -> int
  val vertex_type_name : t -> int -> string
  val out_degree : t -> int -> int
  val in_degree : t -> int -> int
  val iter_out : t -> int -> (dst:int -> etype:int -> eid:int -> unit) -> unit
  val iter_in : t -> int -> (src:int -> etype:int -> eid:int -> unit) -> unit

  val iter_out_etype : t -> int -> etype:int -> (dst:int -> eid:int -> unit) -> unit
  (** The base's contiguous typed slice, minus deletions, then the
      vertex's pending edges of that type. *)

  val typed_out_degree : t -> int -> etype:int -> int

  val vertex_props : t -> int -> (string * Value.t) list
  val vprop_or_null : t -> int -> string -> Value.t

  (** {2 Snapshots and compaction} *)

  val graph : t -> graph
  (** A frozen graph equal to base + deltas. Cached per {!version}
      (and the base itself when the overlay is clean), so repeated
      calls between mutations are free. Batch updates before
      querying: every mutation invalidates the snapshot. *)

  val pending_edges : t -> int
  (** Live pending inserts (inserts later deleted do not count). *)

  val deleted_edges : t -> int
  val pending_ops : t -> int
  (** Total overlay volume: pending vertices + live pending edges +
      base deletions. *)

  val overlay_ratio : t -> float
  (** [pending_ops / max 1 (n_edges base)] — the compaction signal. *)

  val needs_compact : ?threshold:float -> t -> bool
  (** [overlay_ratio > threshold] (default [0.25]). *)

  val compact : t -> graph
  (** Re-freeze base + deltas into a new base and clear the overlay.
      Vertex ids are preserved; edge ids renumber. Returns the new
      base. O(V + E); no-op when the overlay is clean. *)

  val maybe_compact : ?threshold:float -> t -> bool
  (** {!compact} iff {!needs_compact}; [true] when it ran. *)

  (** {2 Snapshot pinning}

      MVCC support for the serving layer ({!Kaskade_serve.Session}):
      a pin captures [(version, graph t)] and bumps a per-version
      refcount. Frozen graphs are immutable — later mutations and even
      {!compact} build {e new} graphs — so a pinned snapshot stays
      valid until the holder drops it; the refcount exists for
      observability (which versions are still being read), not for
      lifetime management (the GC handles that). Pin/unpin are not
      thread-safe on their own: serialize them against mutation under
      an external lock, as [pin] may fill the snapshot cache. *)

  val pin : t -> int * graph
  (** Pin the current version; returns [(version, snapshot)]. *)

  val unpin : t -> int -> unit
  (** Drop one pin of [version]. Raises [Invalid_argument] when that
      version has no live pin. *)

  val pin_count : t -> int
  (** Total live pins across all versions. *)

  val pinned_versions : t -> (int * int) list
  (** [(version, refcount)] pairs, ascending by version. *)
end
