(** Inference-based view enumeration (paper §IV-B): assert the mined
    facts, load the constraint-mining rules and view templates into
    the Prolog engine, and read every template instantiation back as a
    candidate view. *)

type candidate = {
  view : Kaskade_views.View.t;
  bridges : (string * string) option;
      (** For connectors: the query variables the contracted edge
          bridges (the paper's [X]/[Y] unification values). *)
}

type enumeration = {
  candidates : candidate list;  (** Deduplicated, deterministic order. *)
  inference_steps : int;  (** Resolution steps the engine spent — the
      measurement behind the constraint-injection ablation. *)
  facts : Kaskade_prolog.Term.t list;  (** The explicit constraints that
      were asserted (for inspection/tests). *)
}

val enumerate :
  ?budget:Kaskade_util.Budget.t -> Kaskade_graph.Schema.t -> Kaskade_query.Ast.t -> enumeration
(** Constraint-based enumeration for one query. A 1-hop connector is
    not proposed when the schema's only edge type runs between its
    endpoint types: that view is a deduplicated copy of the graph.

    [budget] bounds the Prolog engine: its remaining step allowance
    becomes the engine's step limit and the engine's periodic
    checkpoint re-checks the deadline. Exhaustion raises
    [Kaskade_util.Budget.Exhausted] with stage [Enumerate] (the
    engine's own [Budget_exceeded] never escapes a budgeted call), and
    resolution steps spent are charged back to the budget. *)

val enumerate_unconstrained :
  ?budget:Kaskade_util.Budget.t -> Kaskade_graph.Schema.t -> max_k:int -> enumeration
(** Ablation: schema-only enumeration of k-hop connectors up to
    [max_k] (no query constraints injected) — the [M^k]-shaped space
    of §IV. *)
