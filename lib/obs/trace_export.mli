(** Export {!Trace} span trees in the Chrome trace-event format, so a
    capture from [Trace.collect] can be dropped into [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto} and inspected on a
    timeline.

    Every span becomes one ["X"] (complete) event — start and duration
    in integer microseconds, which is the unit the format mandates.
    The process is always [pid 1]. Spans carry their thread in the
    ["domain"] attribute when they ran inside a [Pool] fan-out (see
    [Trace.record_span]); the exporter maps domain [d] to [tid d + 1]
    and emits ["M"] metadata events naming each thread track ("main"
    for the calling domain, "worker N" for spawned ones). Spans
    without a ["domain"] attribute ran on the calling domain and land
    on the "main" track.

    Span identity survives the flattening: every event's [args] carry
    a pre-order [span_id] and its [parent_id] (absent on roots),
    alongside the span's own attributes. *)

val to_chrome_string : ?process_name:string -> Trace.span list -> string
(** The span forest as one compact trace-event JSON object
    ([{"traceEvents": [...], "displayTimeUnit": "ms"}], the form both
    viewers accept), ready to write to a [.json] file (CLI:
    [kaskade trace --chrome FILE]). [process_name] defaults to
    ["kaskade"]. *)
