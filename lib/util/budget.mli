(** Composable resource budgets with cooperative checkpoints — the
    governance layer that keeps every Kaskade pipeline stage (Prolog
    enumeration, view materialization and refresh, query execution)
    bounded in wall time, work, and output size.

    A budget combines three independent caps, each optional:

    - a {b deadline} in seconds, measured on the monotonic clock
      ({!Mclock}) from {!create} — wall-clock steps cannot fire it
      early or late;
    - a {b step} cap on cooperative work units ({!step} calls, one per
      scanned vertex / frontier expansion / traversal source);
    - a {b row} cap on result rows materialized ({!add_rows}).

    Checkpoints are designed for inner loops: {!step} is an int
    increment plus two compares, and the clock is only read when a
    fuse of accumulated step cost runs out (first call, then every
    {!clock_period} units), so a budget-threaded BFS costs within
    noise of an unbudgeted one. [None] budgets short-circuit: every
    entry point takes a [t option] and threads it down untouched.

    A budget is owned by one query/refresh attempt on one domain.
    Worker domains in a [Pool] fan-out may share it — step counts can
    lose increments under the race, but the counter only moves forward
    and the deadline is immutable, so exhaustion is still detected
    promptly; counts are approximate, never unsafe.

    {!Faults} is the seeded fault-injection hook used by the
    robustness tests and the [bench faults] experiment: it can force a
    timeout or a failure at a named site, either programmatically
    ({!Faults.with_faults}) or from the [KASKADE_FAULTS] environment
    variable. *)

(** Pipeline stage reported by an exhausted budget — the coordinate of
    the checkpoint that fired, carried into [Kaskade.Error]. *)
type stage = Enumerate | Plan | Execute | Refresh | Materialize

val stage_label : stage -> string
(** ["enumerate"], ["plan"], ["execute"], ["refresh"],
    ["materialize"]. *)

exception Exhausted of { stage : stage; detail : string }
(** Raised by a checkpoint when any cap is exceeded. [detail] is a
    human-readable account of which cap fired (e.g.
    ["deadline of 0.050s exceeded"]). *)

exception Fault_injected of { site : string }
(** Raised by {!fault_point} when an armed [Fail]-kind fault matches —
    a stand-in for an internal failure (refresh crash, I/O error) at
    the site. *)

type t

val create : ?deadline_s:float -> ?max_steps:int -> ?max_rows:int -> unit -> t
(** A budget whose deadline clock starts now. Omitted caps are
    unlimited; [create ()] never exhausts but still counts (useful for
    observing cost). *)

(** {1 Checkpoints}

    All take [t option]; [None] is a no-op. *)

val step : ?cost:int -> t option -> stage -> unit
(** Account [cost] (default 1) work units; raises {!Exhausted} when
    the step cap is exceeded or — on the periodic clock read — the
    deadline has passed. *)

val check : t option -> stage -> unit
(** Force a deadline (and step/row cap) re-check without accounting
    work. Call at stage boundaries so a 0-second deadline fires before
    any work starts. *)

val add_rows : t option -> stage -> int -> unit
(** Account [n] result rows against the row cap. *)

(** {1 Introspection} *)

val remaining_steps : t -> int option
(** Steps left under the cap, clamped at 0; [None] when uncapped. Used
    to map the budget onto sub-engines with their own step limits
    (e.g. the Prolog enumerator). *)

val elapsed_s : t -> float
(** Monotonic seconds since {!create}. *)

val deadline_s : t -> float option

val describe : t -> string
(** One-line state for EXPLAIN output, e.g.
    ["deadline 0.500s (0.012s elapsed), steps 1841/100000, rows 12"]. *)

(** {1 Fault injection} *)

module Faults : sig
  (** What an armed fault does when its site is hit: [Timeout] raises
      {!Exhausted} (as if the deadline had passed there), [Fail]
      raises {!Fault_injected} (as if the site's work had crashed). *)
  type kind = Timeout | Fail

  type fault

  val fault : ?times:int -> ?prob:float -> ?seed:int -> string -> kind -> fault
  (** A fault armed at the named site. [times] (default: unlimited)
      caps how often it fires; [prob] (default 1.0) fires it on each
      hit with that probability, drawn from a deterministic
      {!Prng} stream seeded with [seed] (default 0) — the {e seeded}
      part: a given (seed, prob) always fails the same hits. *)

  val with_faults : fault list -> (unit -> 'a) -> 'a
  (** Run the thunk with the faults armed (on top of any inherited
      ones), disarming them on exit even on exceptions. *)

  val with_spec : string -> (unit -> 'a) -> 'a
  (** Like {!with_faults}, parsing the [KASKADE_FAULTS] syntax:
      comma-separated [site=kind] entries with optional [:nN] (times),
      [:pP] (probability), [:sS] (seed) suffixes — e.g.
      ["maintain.refresh=fail:n2,executor.run=timeout:p0.5:s7"].
      Raises [Invalid_argument] on malformed specs. *)

  val active : unit -> bool
  (** True when any fault (environment or programmatic) is armed. *)
end

val fault_point : stage -> site:string -> unit
(** Declare a named injection site. No-op unless a matching fault is
    armed — via {!Faults.with_faults} or the [KASKADE_FAULTS]
    environment variable (read once, at the first call). Sites in this
    repository: ["executor.run"], ["enumerate"], ["maintain.refresh"],
    ["materialize"], ["store.wal_append"] (simulates a kill mid-WAL
    write — see [Kaskade_store.Wal]). *)
