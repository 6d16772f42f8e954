(** Property-graph schema: named vertex types and edge types with
    domain and range (paper §III-A). The schema captures constraints
    such as "an edge of type WRITES_TO only connects Job to File" —
    the structural information Kaskade mines for view enumeration. *)

type edge_def = {
  name : string;
  src : string;  (** Domain vertex type. *)
  dst : string;  (** Range vertex type. *)
}

type t

val define : vertices:string list -> edges:(string * string * string) list -> t
(** [define ~vertices ~edges] where each edge is
    [(src_type, edge_name, dst_type)]. Raises [Invalid_argument] on
    duplicate names or unknown endpoint types. Edge names must be
    unique (one domain/range per edge type, as in the paper's
    provenance schema). *)

val vertex_types : t -> string list
(** In declaration order; ids are positions in this list. *)

val edge_defs : t -> edge_def list

val vertex_type_id : t -> string -> int
(** Raises [Not_found]. *)

val vertex_type_name : t -> int -> string
val n_vertex_types : t -> int
val n_edge_types : t -> int

val edge_type_id : t -> string -> int
val edge_type_name : t -> int -> string
val edge_src : t -> int -> int
val edge_dst : t -> int -> int

val edge_types_from : t -> int -> int list
(** Edge-type ids whose domain is the given vertex-type id. *)

val has_vertex_type : t -> string -> bool
val has_edge_type : t -> string -> bool

val is_homogeneous : t -> bool
(** One vertex type and at most one edge type (paper footnote 1). *)

val restrict : t -> keep_vertices:string list -> t
(** Sub-schema induced by a vertex-type subset: keeps those vertex
    types and every edge type whose endpoints both survive. Used when
    describing summarizer outputs. *)

val add_edge_type : t -> src:string -> name:string -> dst:string -> t
(** Extended schema with one more edge type — how connector views
    announce their contracted-edge type (e.g. JOB_TO_JOB_2HOP). *)
