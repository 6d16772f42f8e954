(** Registry of materialized views over one base graph — what the
    paper's execution engine consults during view-based query
    rewriting (§V-C: "pruning those it has not materialized") —
    extended with the per-entry {e freshness} state machine that makes
    the catalog safe under base-graph updates (MV4PG's
    staleness-tracked catalog, PAPERS.md).

    Freshness lattice: [Fresh] --(updates)--> [Stale ops]
    --(refresh starts)--> [Rebuilding] --(refresh lands)--> [Fresh].
    Updates arriving while [Stale] append to the pending delta;
    updates arriving while [Rebuilding] are a caller error (the facade
    serializes refreshes against mutations). The planner must treat
    anything other than [Fresh] as unusable for answering queries. *)

type freshness =
  | Fresh  (** Matches the current base graph; safe to answer from. *)
  | Stale of Kaskade_graph.Graph.Overlay.op list
      (** Base has moved; the payload is the op delta (oldest first)
          the view has not absorbed. *)
  | Rebuilding
      (** A refresh is in flight; the view graph is the pre-delta one. *)

val freshness_label : freshness -> string
(** ["fresh"], ["stale(<n> ops)"] or ["rebuilding"]. *)

type entry = {
  materialized : Materialize.materialized;
  size_edges : int;
  size_vertices : int;
  mutable freshness : freshness;
}

type t

val create : unit -> t

val add : t -> Materialize.materialized -> unit
(** Registers the view as [Fresh]. Replaces any previous entry for the
    same view name. *)

val find : t -> View.t -> entry option
val find_by_name : t -> string -> entry option
val entries : t -> entry list
(** Sorted by view name. *)

(** {2 Freshness transitions} *)

val mark_stale : t -> Kaskade_graph.Graph.Overlay.op list -> unit
(** Record a base-graph delta against {e every} entry: [Fresh] becomes
    [Stale ops]; [Stale prior] becomes [Stale (prior @ ops)]. Raises
    [Invalid_argument] if any entry is [Rebuilding]. No-op on [[]]. *)

val begin_refresh : entry -> Kaskade_graph.Graph.Overlay.op list
(** [Stale ops -> Rebuilding], returning the pending delta ([[]] when
    the entry was already [Fresh] — the caller can skip the work).
    Raises [Invalid_argument] when already [Rebuilding]. *)

val abort_refresh : entry -> Kaskade_graph.Graph.Overlay.op list -> unit
(** [Rebuilding -> Stale ops]: a refresh failed (crash, fault
    injection, budget exhaustion); restore the pending delta so the
    entry can be refreshed again later — without this transition a
    failed refresh would wedge the catalog ({!mark_stale} refuses
    [Rebuilding] entries). Raises [Invalid_argument] unless the entry
    is [Rebuilding]. *)

val finish_refresh : t -> entry -> Materialize.materialized -> unit
(** Install the refreshed materialization and return to [Fresh]
    (whatever the previous state). Sizes are recomputed. *)

val n_stale : t -> int
(** Entries whose freshness is not [Fresh]. *)
