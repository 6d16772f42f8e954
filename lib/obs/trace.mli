(** Hierarchical wall-clock spans — the tracing substrate of the
    observability layer. Collection is off by default and every
    instrumentation point is a single flag test when off, so engine
    code can be annotated freely without taxing the hot path
    ("zero-cost-when-disabled"): [with_span] calls its thunk directly
    and [add_attr] is a no-op unless a {!collect} is in flight.

    Spans nest by dynamic extent. The collector is process-global and
    not reentrant (no [collect] inside [collect]) — matching how the
    engine is driven today (one query at a time per process). *)

type span = {
  name : string;
  attrs : (string * string) list;  (** In attachment order. *)
  start_s : float;  (** Seconds since the enclosing [collect] began. *)
  duration_s : float;
  children : span list;  (** In start order. *)
}

val enabled : unit -> bool
(** True while a {!collect} is in flight. *)

val now_s : unit -> float
(** {e Monotonic} clock in seconds ([Kaskade_util.Mclock]) — exported
    so engine modules can time operators without picking a clock
    themselves. Readings are only meaningful relative to each other
    (durations, deadlines), never as timestamps; use
    [Unix.gettimeofday] where a human-readable time of day is
    wanted. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span (when collecting). The span is
    recorded even when the thunk raises; the exception propagates.
    While a {!Tracectx} is ambient, the span additionally carries a
    [("trace", id)] attribute (unless the caller supplied one) — the
    request-correlation hook. *)

val add_attr : string -> string -> unit
(** Attach a key/value to the innermost open span. No-op when not
    collecting or outside any span. *)

val record_span :
  ?attrs:(string * string) list -> name:string -> start_s:float -> stop_s:float -> unit -> unit
(** Append an already-timed leaf span (times on the {!now_s} monotonic
    clock, converted to collect-relative internally) as a child of the
    innermost open span. This is how work measured off the main domain
    enters the tree: [Pool.map_morsels] stamps each morsel inside its
    worker and replays the stamps here after the join, with a
    ["domain"] attribute naming the executing domain (0 = the calling
    domain) — {!Trace_export} maps it to per-thread tracks. No-op when
    not collecting. Main-domain only. Stamped with the ambient
    {!Tracectx} like {!with_span} — because the Pool observer replays on
    the calling domain, morsel spans inherit the request's trace id. *)

val collect : (unit -> 'a) -> 'a * span list
(** Run with collection enabled and return the top-level spans in
    start order. Raises [Invalid_argument] when nested. If the thunk
    raises, collection is switched off before the exception escapes. *)

val pp : Format.formatter -> span -> unit
(** One span per line, indented by depth: [name  12.3ms  k=v ...]. *)
