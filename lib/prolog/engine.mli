(** SLD resolution engine for Kaskade's rule library ([Kaskade.Rules]):
    the stand-in for SWI-Prolog in the paper's architecture (Fig. 2).

    The clause language is conjunction, disjunction, if-then-else,
    negation-as-failure ([\+]/[not]), cut and unification ([=]). The
    only other builtins are the ones the constraint-mining rules and
    view templates call: [is/2] over [+] and [-], [>/2], [>=/2],
    [integer/1], [between/3] and [setof/3]. Calling an undefined
    predicate fails silently, as the mining rules expect.

    A step budget guards against runaway recursion: every resolution
    step decrements it and {!Budget_exceeded} is raised at zero. The
    step counter is also the measurement used by the constraint-
    injection ablation (paper §IV claims constraints let the engine
    "early-stop on branches that do not yield feasible rewritings"). *)

type t

exception Budget_exceeded of int
(** Carries the configured budget. *)

exception Runtime_error of string
(** Unbound or non-callable goals and bad arithmetic. *)

val create : ?step_limit:int -> ?checkpoint:(unit -> unit) -> Db.t -> t
(** [create db] builds an engine over the clause database. Default
    step limit: 50 million. [checkpoint] (default: no-op) is called
    every 4096 resolution steps — the hook external deadline budgets
    use to cancel a runaway enumeration; any exception it raises
    propagates out of the solver. *)

val builtins : (string * int) list
(** Name/arity of every predicate the engine defines itself, control
    constructs included. *)

val steps : t -> int
(** Resolution steps consumed since creation. *)

val reset_steps : t -> unit

val all_solutions : t -> string -> (string * Term.t) list list
(** [all_solutions t src] parses [src] as a goal and returns the
    resolved bindings of its named variables, once per solution, in
    discovery order. *)
