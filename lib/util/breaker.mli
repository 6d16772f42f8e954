(** Per-resource circuit breaker — the degradation policy guarding
    materialized-view refresh: after [threshold] {e consecutive}
    failures the breaker opens and the resource is quarantined (the
    caller stops attempting the failing operation and falls back);
    once [cooldown_s] monotonic seconds pass it goes half-open,
    letting exactly one probe attempt through — success closes it,
    failure re-opens it and restarts the cooldown.

    State is evaluated lazily against the clock: [Open] decays to
    [Half_open] the first time {!state} (or {!allow}) is consulted
    after the cooldown elapses. Single-domain use only. *)

type state = Closed | Open | Half_open

type t

val create : ?threshold:int -> ?cooldown_s:float -> unit -> t
(** [threshold] (default 3) consecutive failures open the breaker;
    [cooldown_s] (default 30) is the quarantine length. Starts
    [Closed]. *)

val state : t -> state

val allow : t -> bool
(** May the protected operation be attempted now? [true] in [Closed]
    and [Half_open] (the probe), [false] while [Open]. A [Half_open]
    breaker keeps allowing until an outcome is recorded. *)

val record_success : t -> unit
(** Clears the failure streak and closes the breaker. *)

val record_failure : t -> bool
(** One more consecutive failure. In [Half_open], re-opens
    immediately. Returns [true] exactly when this call transitioned
    the breaker to [Open] (so callers can count distinct openings). *)

val failures : t -> int
(** Current consecutive-failure streak. *)

val describe : t -> string
(** One-line state for EXPLAIN output: ["closed"],
    ["open (3 failures, 27.1s cooldown left)"] or
    ["half-open (probe pending)"]. *)
