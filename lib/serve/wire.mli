(** The serving layer's newline-delimited line protocol: requests and
    responses are single lines (except [ROWS], whose row lines are
    prefixed with ["| "] and end with the usual [OK] line), so any
    [nc -U]-grade client works.

    {b Requests} (first token is the verb, case-sensitive):
    - [PING] — liveness probe.
    - [OPEN] — open a session pinned to the current version.
    - [Q [trace=<id>] <query>] — evaluate on the session's pinned
      snapshot; the response carries the row count and an FNV-1a
      checksum of the canonically rendered result, so clients verify
      byte-identity without streaming rows. The optional leading
      [trace=] token (16 hex digits, {!Kaskade_obs.Tracectx}) names
      the request's trace id; the server mints one when absent and
      echoes the effective id as [trace=] in the response — the same
      id its qlog record and spans carry.
    - [ROWS [trace=<id>] <query>] — like [Q] but streams the rendered
      rows first.
    - [REPIN] — re-pin to the current version.
    - [UPDATE <op>[;<op>...]] — writer batch; ops use the CLI's
      syntax: [insert-vertex:TYPE], [insert-edge:SRC:DST:ETYPE],
      [delete-edge:SRC:DST:ETYPE].
    - [STATS] — manager counters plus store gauges (WAL growth,
      last snapshot).
    - [HEALTH] — one-line health verdict: [status=ok|degraded|unhealthy]
      with comma-joined reasons, plus windowed qps/p95 from the
      server's time-series sampler.
    - [METRICS] — the whole metrics registry in Prometheus text
      exposition format, streamed as ["| "]-prefixed lines before the
      terminal [OK lines=N].
    - [CLOSE] — close the session (the connection stays up).
    - [SHUTDOWN] — stop the server after this response.

    {b Responses}: [OK key=value ...] or
    [ERR label=<Error.label> msg=<text>] — [msg] is the last key and
    runs to end of line (newlines squashed to spaces). *)

type request =
  | Ping
  | Open
  | Query of { q : string; trace : string option }  (** [Q] — checksum only. *)
  | Query_rows of { q : string; trace : string option }  (** [ROWS] — stream rendered rows. *)
  | Repin
  | Update of Kaskade.Update.op list
  | Stats
  | Health
  | Metrics
  | Close
  | Shutdown

val parse_request : string -> (request, string) result
(** Parse one request line (already newline-stripped). [Error] is a
    human-readable reason for the [ERR] response. *)

val render_result : Kaskade_graph.Graph.t -> Kaskade_exec.Executor.result -> string
(** Canonical text rendering: [Row.pp] output for tables (the same
    bytes the CLI prints), ["affected N"] for procedure results. The
    byte-identity contract of the concurrency drill is over this
    string. *)

val checksum : string -> string
(** FNV-1a (64-bit, 16 hex digits) — [Qlog.hash_query] on the rendered
    result. *)

val ok : (string * string) list -> string
(** [OK k=v ...] response line. *)

val err : Kaskade.Error.t -> string
(** [ERR label=... msg=...] response line for a typed error. *)

val err_msg : label:string -> string -> string
(** [ERR] with an ad-hoc label (e.g. protocol violations, label
    ["proto"]). *)

val fields : string -> (string * string) list option
(** Parse a response line back into fields: [Some kvs] for [OK]/[ERR]
    lines ([("_status", "ok" | "err")] is prepended), [None] for row
    lines. Values run to the next [ key=] boundary except [msg], which
    runs to end of line. *)
