(** Structured query plans — what [EXPLAIN] prints and [PROFILE]
    annotates. A plan is a tree of operators; each node carries the
    planner's estimated output cardinality and, after a profiled run,
    the actual row count and wall time the executor observed.

    The node type is deliberately engine-agnostic (operator kind and
    detail are strings): [lib/exec] builds the trees from its cost
    model and fills the actuals, this module only represents and
    renders them. Estimated fields are immutable — profiling mutates
    [actual_rows]/[time_s] in place so the executor can annotate the
    very tree the planner produced, guaranteeing EXPLAIN and PROFILE
    can never disagree about plan shape.

    Within a pattern, scan/expand operators are {e fused}: the
    executor runs them as one nested-loop pipeline, so they report
    actual rows (successful bindings per step) but no per-step wall
    time; time is accounted at the pattern operator above them. *)

type node = {
  op : string;  (** Operator kind, e.g. ["NodeByLabelScan"]. *)
  detail : string;  (** Human-readable argument, e.g. ["(j:Job)"]. *)
  est_rows : float option;  (** Cost-model output cardinality. *)
  mutable actual_rows : int option;  (** Filled by a profiled run. *)
  mutable time_s : float option;  (** Filled by a profiled run. *)
  children : node list;
}

val node : ?est_rows:float -> ?detail:string -> string -> node list -> node
(** [node op children] with no actuals. *)

val set_actual : node -> int -> unit
val set_time : node -> float -> unit
(** Accumulates: a second [set_time] on the same node adds (operators
    that run once per upstream row). *)

val iter : (node -> unit) -> node -> unit
(** Pre-order. *)

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a
(** Pre-order. *)

val find : (node -> bool) -> node -> node option
(** First pre-order match. *)

val profiled : node -> bool
(** True when any node in the tree carries actuals. *)

val render : node -> string
(** Multi-line operator table: tree-drawn operator column plus
    est. rows / actual rows / time columns (actuals blank on a plain
    EXPLAIN). *)

val to_json : node -> Report.json
