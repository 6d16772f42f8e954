(** Line-protocol front-end over a Unix domain socket: one {!Session.t}
    per connection (opened by the [OPEN] verb), all connections sharing
    one {!Session.manager} — so admission control and writer
    serialization are global to the server, not per client.

    Threading: each connection gets a systhread that does its socket
    I/O and runs the other verbs ([UPDATE] included). [Q] and [ROWS]
    requests are parsed, executed and rendered on the server's worker
    domains ({!Session.dispatch}) while the connection thread waits,
    so concurrent connections use separate cores.

    Failure containment: a protocol violation, a query error or any
    other exception a request raises, on its connection thread or on
    the worker that ran it, is answered as an [ERR] line (label
    [internal] when [Kaskade.Error.of_exn] does not classify the
    exception) and the connection keeps serving; a failed socket read
    or write ends that connection only. The accept loop survives
    anything but a [SHUTDOWN] request. A request line
    longer than 1 MiB is answered [ERR label=proto] and closes its
    connection. A handler leaves the server's table when its
    connection ends; [STATS] reports the live count as
    [connections=]. *)

type t

val create :
  ?max_sessions:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?deadline_s:float ->
  ?mode:Kaskade_exec.Executor.mode ->
  ?thresholds:Kaskade_obs.Health.thresholds ->
  ?sample_every_s:float ->
  ?timeseries_capacity:int ->
  socket:string ->
  Kaskade.t ->
  t
(** Bind and listen on [socket] (an existing socket file is
    unlinked). [deadline_s], when given, attaches a fresh
    [Budget.create ~deadline_s] to every [Q]/[ROWS] request — the
    per-request deadline budget of the admission controller.
    Capacity knobs are {!Session.create_manager}'s. [thresholds]
    configures the [HEALTH] verb's judgment
    ({!Kaskade_obs.Health.default_thresholds} otherwise);
    [sample_every_s] (default 1.0, clamped to ≥ 0.01) is the
    time-series sampler interval and [timeseries_capacity] its ring
    size. Raises [Unix.Unix_error] when binding fails (bad path,
    permissions). *)

val run : t -> unit
(** Accept loop; blocks until a client sends [SHUTDOWN], then waits for open connection handlers
    (and the time-series sampler thread) to drain, joins the worker
    domains and removes the socket file. Starts the workers
    ({!Session.start_workers}; if that fails, the server stops
    listening and the exception propagates) and the sampler: one
    immediate baseline sample, then one per [sample_every_s]. *)

val manager : t -> Session.manager

val timeseries : t -> Kaskade_obs.Timeseries.t
(** The server's sampler ring — what [HEALTH] reads its windowed
    qps/shed-rate from, exported for the bench drill and for dumping
    with [Timeseries.save] after {!run} returns. *)
