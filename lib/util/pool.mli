(** Domain pool: deterministic parallel fan-out/merge on top of
    OCaml 5 [Domain]s.

    A pool fixes how many domains a fan-out may use. The primary
    fan-out is {!map_morsels}: the index range [\[0, n)] is cut into
    fixed-size {e morsels} and workers (the calling domain plus
    freshly spawned ones, joined before returning) claim them from a
    shared atomic cursor — work-stealing scheduling, so a worker stuck
    on a heavy morsel simply stops claiming while the others drain the
    rest. Results land in per-morsel slots and are returned in morsel
    order. No worker outlives the call, so there is nothing to shut
    down and no interaction with process exit.

    Determinism contract: a caller whose morsel function maps each
    index [i] in [\[lo, hi)] independently and appends per-index
    results in index order gets — after concatenating the returned
    morsels — the exact same sequence for every pool width and every
    grain, including width 1 (fully sequential). Error behavior is
    deterministic too: every morsel runs to completion (or failure)
    and the {e lowest-indexed} morsel's exception is rethrown, which —
    because each morsel scans its range in order — is exactly the
    exception a sequential run would have raised first. The
    materializer and the executor's parallel scans rely on this to
    make parallel runs byte-identical to sequential ones.

    Worker domains may update {!Kaskade_obs.Metrics} counters (they
    take the atomic merge path), may borrow {!Scratch} buffers (pools
    are domain-local), and may share one {!Budget} (step counts are
    racy but monotone; exhaustion is detected promptly and surfaces as
    the deterministic lowest-morsel error). *)

type t

val create : ?domains:int -> ?oversubscribe:bool -> unit -> t
(** [domains] defaults to {!default_domains}; values are clamped to
    [\[1, 64\]]. By default morsel fan-outs cap their worker count at
    the hardware parallelism ([Domain.recommended_domain_count]) —
    spawning more domains than cores makes fan-outs slower (the
    workers time-share and every minor GC synchronizes all of them).
    [oversubscribe] (default [false]) lifts that cap and spawns up to
    [domains] workers regardless; tests use it to exercise real
    multi-domain merging on any machine. *)

val domains : t -> int
(** The requested width. *)

val effective_workers : t -> int
(** The width {!map_morsels} will actually use: [domains t], capped at
    the hardware parallelism unless the pool oversubscribes. *)

val default : unit -> t
(** Memoized pool of {!default_domains} width. When [KASKADE_DOMAINS]
    is set the pool oversubscribes: an explicit width is honored even
    past the machine's core count. *)

val map_morsels : t -> ?grain:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a array
(** Evaluate [f ~lo ~hi] over [\[0, n)] in morsels of [grain]
    consecutive indices (last one may be short), claimed by up to
    {!effective_workers} domains from a shared cursor. Returns the
    per-morsel results in morsel-index order; [n = 0] yields [[||]].
    [grain] defaults to [max 256 (n / (workers * 8))] — small enough
    to steal, large enough that the cursor is uncontended — and is
    irrelevant to the merged output (see the determinism contract).
    With one effective worker (or a single morsel) everything runs on
    the caller, no domain is spawned, and nothing is reported to the
    morsel observer. *)

val set_morsel_observer :
  (worker:int ->
  workers:int ->
  morsel:int ->
  morsels:int ->
  lo:int ->
  hi:int ->
  start_s:float ->
  stop_s:float ->
  unit)
  option ->
  unit
(** Install a telemetry hook: when set, every parallel {!map_morsels}
    fan-out reports each morsel's claiming worker ([0] is the calling
    domain), index, range, and monotonic start/stop time ([Mclock]
    seconds, measured inside the executing domain). The hook runs on
    the {e calling} domain after all workers are joined, one call per
    completed morsel in morsel order — under stealing the same worker
    id recurs on whatever morsels it claimed. [Kaskade_obs.Trace]
    installs one at init so Chrome traces show per-worker timelines
    labelled with morsel ranges; the hook must be cheap and must not
    raise. Sequential (single-worker) fan-outs are not reported. *)
