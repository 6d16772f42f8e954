(** Fixed-interval time series over the {!Metrics} registry: a bounded
    ring of {!point}s, each holding counter {e deltas} since the
    previous sample, current gauge levels, and histogram count deltas
    with lifetime p50/p95/p99. The serving layer runs {!sample} on a
    timer thread; [HEALTH] responses and `kaskade top` read {!latest}
    for windowed rates (QPS, shed rate), and {!to_jsonl} exports the
    ring for offline plotting. Thread-safe (one mutex; sampler thread
    appends while handler threads read). *)

type point = {
  at_s : float;  (** Monotonic sample time ({!Trace.now_s} clock). *)
  wall_s : float;  (** [Unix.gettimeofday] at the sample, for export. *)
  interval_s : float;  (** Seconds since the previous sample; [0.0] on the first. *)
  counters : (string * int) list;  (** Delta per registered counter over the interval. *)
  gauges : (string * float) list;  (** Current levels. *)
  histograms : (string * (int * float * float * float)) list;
      (** Per histogram: count delta over the interval, then lifetime
          p50/p95/p99 estimates ([0.0] while empty). *)
}

type t

val create : ?capacity:int -> unit -> t
(** A ring holding the most recent [capacity] points (default 120 —
    two minutes at a 1s interval). *)

val capacity : t -> int
val length : t -> int

val sample : t -> point
(** Snapshot the registry now, append the point, and return it. The
    first sample has [interval_s = 0.0] and whole-life counter deltas;
    call once at startup to set the baseline if that matters. *)

val points : t -> point list
(** Current window, oldest first. *)

val latest : t -> point option

val counter_delta : point -> string -> int
(** Delta for the named counter in this point ([0] when absent). *)

val gauge_level : point -> string -> float option
val histogram_point : point -> string -> (int * float * float * float) option

val rate : point -> string -> float
(** [counter_delta / interval_s] — per-second rate over the point's
    window ([0.0] on the baseline point). *)

val to_jsonl : t -> string
(** The ring as JSON Lines, oldest first. *)

val save : t -> string -> unit
