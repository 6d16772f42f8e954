(** Process-wide metrics registry: named monotonic counters and
    log-bucketed histograms. Instruments are registered once (module
    init time in the engine) and updated with a plain field mutation,
    so they are cheap enough to live on hot paths. Off the main domain
    an update is an atomic fetch-and-add on a shared cell, so inner
    loops tally locally and add once: the variable-length traversals
    count {e expand_steps} per frontier vertex and add the total per
    traversal.

    The registry is global on purpose: the bench harness and CLI dump
    one snapshot per process ({!to_json}) without threading a handle
    through every engine layer. [reset] zeroes values (registrations
    survive) so tests and bench experiments can scope their readings. *)

type counter
type histogram
type gauge

val counter : ?help:string -> string -> counter
(** Register (or fetch, if already registered) the named counter. *)

(** [incr c] on the main domain is a single unsynchronized field
    mutation (hot-loop cheap). On worker domains (e.g. inside a
    [Kaskade_util.Pool] fan-out) it is an atomic add into a side cell
    that {!counter_value} and {!to_json} merge in — counts stay exact
    under parallel materialization. {!observe} follows the same
    two-path scheme. *)
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val histogram : ?help:string -> string -> histogram
(** Register (or fetch) the named histogram. Buckets are base-2
    exponential, sized for anything from sub-microsecond timings to
    edge counts. *)

val observe : histogram -> float -> unit
(** Record one value. Main-domain observations are plain field
    mutations; worker-domain observations (Pool fan-outs) go through
    per-histogram atomic side cells (bucket fetch-and-add, CAS loops
    for sum/min/max) that every reader merges — observations stay
    exact at any pool width, same contract as {!incr}. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_min : histogram -> float
(** [Float.infinity] when empty. *)

val histogram_max : histogram -> float
(** [Float.neg_infinity] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile (e.g. [0.5], [0.95],
    [0.99]) from the merged log-scale buckets: locate the bucket where
    the cumulative count crosses [q * count], interpolate linearly
    inside it, and clamp to the observed min/max. Resolution is the
    base-2 bucket width — the estimate is within a factor of 2 of the
    exact order statistic, and exact at the extremes. [nan] when
    empty. *)

val gauge : ?help:string -> string -> gauge
(** Register (or fetch) the named gauge — a level with set-the-value
    semantics (e.g. {e kaskade.stale_views}), unlike a counter's
    accumulation. Main domain only. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val reset : unit -> unit
(** Zero every registered instrument (registrations are kept). Safe to
    call while worker domains are observing: each atomic side cell is
    cleared independently, so a racing observation lands wholly before
    or wholly after the reset — never torn. *)

val counters_list : unit -> (string * int) list
(** Every registered counter as [(name, merged value)], name-sorted.
    Registry iteration for the Prometheus exposition, the
    {!Timeseries} sampler, and the metrics-name lint test. *)

val gauges_list : unit -> (string * float) list
val histograms_list : unit -> (string * histogram) list

val names : unit -> string list
(** Every registered instrument name (counters, histograms, gauges),
    sorted and de-duplicated. *)

val to_json : unit -> Report.json
(** Snapshot of every registered instrument:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}].
    Histograms carry count/sum/min/max/mean, p50/p95/p99 quantile
    estimates ({!quantile}), plus non-empty [le]-labelled buckets.
    Names are emitted in sorted order so dumps diff cleanly. *)

val to_prometheus : unit -> string
(** The whole registry in Prometheus text exposition format (0.0.4):
    dots in names become underscores, counters gain a [_total] suffix,
    histograms emit cumulative [le]-labelled buckets (non-empty ones
    plus [+Inf]) and [_sum]/[_count] series, [# HELP]/[# TYPE]
    comments from the registration help strings. This is what the
    serve layer's [METRICS] wire verb returns. *)
