(** Graph-view descriptors: the two classes the paper identifies
    (§III-C, §VI) — connectors (path contractions, Table I) and
    summarizers (type filters, Table II). Only the kinds some query
    can be rewritten over are defined: k-hop connectors and the four
    type filters. A descriptor is a logical definition;
    {!Materialize} turns it into a physical graph. *)

type connector =
  | K_hop of { src_type : string; dst_type : string; k : int }
      (** Edge per (pair of vertices connected by a k-length path).
          The same-vertex-type k-hop connector of the paper is the
          [src_type = dst_type] case. *)

type summarizer =
  | Vertex_inclusion of string list  (** Keep these vertex types, and
      edges whose endpoints both survive. *)
  | Vertex_removal of string list
  | Edge_inclusion of string list  (** Keep only these edge types
      (all vertices survive). *)
  | Edge_removal of string list

type t = Connector of connector | Summarizer of summarizer

val name : t -> string
(** Deterministic, filesystem/Cypher-safe identifier, e.g.
    [JOB_TO_JOB_2HOP] or [KEEP_JOB_FILE]. Two structurally equal views
    share a name. *)

val connector_edge_type : connector -> string
(** Name of the contracted-edge type a connector view introduces. *)

val describe : t -> string
(** Human-readable one-liner (bench output, catalogs). *)

val compare : t -> t -> int
