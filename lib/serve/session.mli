(** The serving layer's session/MVCC core: many concurrent readers,
    each pinned to an immutable snapshot version, one serialized
    writer, and admission control in front of execution.

    {b Model.} A {!manager} wraps one [Kaskade.t]. Readers call
    {!open_} to get a {!t} (a session) pinned to the overlay version
    current at open time ([Graph.Overlay.pin]); every {!run} on that
    session evaluates against exactly that frozen snapshot — a
    concurrent writer's batches ({!submit}) are invisible until the
    reader {!repin}s or opens a new session, and a reader can never
    observe a half-applied batch because pin capture and batch apply
    are serialized under the manager lock. Writers are serialized the
    same way: {!submit} applies a whole batch through
    [Kaskade.Update.batch] while holding the lock, so the overlay
    version advances batch-atomically.

    {b Threading.} Sessions may be driven from separate domains or
    systhreads: {!run} executes on the caller's own thread, {!dispatch}
    on the manager's worker domains ({!start_workers}), so concurrent
    served requests run in parallel rather than taking turns on one
    domain's runtime lock. Execution itself runs {e outside} the
    manager lock on the immutable pinned graph; only
    pin/unpin/apply/admission bookkeeping hold it. One session must
    not be used from two threads at once (its executor context is
    private but stateful).

    {b Admission.} At most [max_inflight] queries execute at once;
    up to [max_queue] more wait — in-process callers and served
    requests in one bounded queue. A request arriving with the queue
    full is shed with [Error.Overloaded] (counted by the
    [kaskade.shed_requests] metric); a queued request whose budget
    deadline expires before a slot frees fails with
    [Error.Budget_exhausted] at the deadline, without executing.
    {!open_} sheds with [Overloaded] when [max_sessions] sessions are
    already live. *)

type manager
type t

val create_manager :
  ?max_sessions:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?mode:Kaskade_exec.Executor.mode ->
  Kaskade.t ->
  manager
(** Defaults: [max_sessions] 64, [max_inflight] 4, [max_queue] 16,
    [mode] [Distinct_endpoints] (the mode every session's executor
    context uses — match the serial reference when checking
    byte-identity). *)

val open_ : manager -> (t, Kaskade.Error.t) result
(** Pin the current overlay version and register a new session.
    [Error (Overloaded { resource = "sessions"; _ })] at capacity. *)

val id : t -> string
(** Unique per manager, ["s1"], ["s2"], ... — the qlog [session]
    field. *)

val pinned_version : t -> int
(** The overlay version this session reads. Raises [Invalid_argument]
    on a closed session. *)

val pinned_graph : t -> Kaskade_graph.Graph.t
(** The immutable snapshot this session reads. Raises
    [Invalid_argument] on a closed session. *)

val run :
  ?budget:Kaskade_util.Budget.t ->
  ?trace:string ->
  t ->
  Kaskade_query.Ast.t ->
  (Kaskade_exec.Executor.result, Kaskade.Error.t) result
(** Evaluate against the pinned snapshot, through admission control.
    Appends one [Kaskade_obs.Qlog] record per call (successes and
    governed failures alike) carrying this session's {!id} and the
    admission-queue wait. [budget]'s deadline covers queue wait plus
    execution. [trace] installs a {!Kaskade_obs.Tracectx} for the
    whole call (admission included), so the qlog record — and any
    spans, if a collection is in flight — carry the request's id. *)

type workers
(** A running set of worker domains serving one manager's
    {!dispatch}ed requests. *)

val start_workers : manager -> workers
(** Spawn [min max_inflight (Domain.recommended_domain_count ())]
    worker domains — [Kaskade_util.Pool]'s sizing policy. *)

val stop_workers : workers -> unit
(** Let the workers finish what can run, then join them. Call it once
    no {!dispatch} is outstanding. *)

val dispatch :
  ?budget:Kaskade_util.Budget.t ->
  ?trace:string ->
  t ->
  string ->
  ((Kaskade_exec.Executor.result, Kaskade.Error.t) result -> 'a) ->
  'a
(** [dispatch s text k] parses [text], runs it like {!run} and applies
    [k] to the outcome — all on a worker domain, with [trace]
    installed there — and blocks the calling thread until [k] returned,
    re-raising anything [k] raised. A request the admission queue sheds,
    or whose deadline expires while queued, never reaches a worker:
    [k] gets the error (or the parse error, if [text] does not parse) on
    the calling thread. Requires {!start_workers}. *)

val repin : t -> int
(** Drop the session's pin and re-pin the {e current} overlay version
    (the read-your-writes hook after {!submit}); returns the new
    version. No-op when the version did not move. *)

val close : t -> unit
(** Unpin and unregister. Idempotent. *)

val submit : manager -> Kaskade.Update.op list -> (int * int, Kaskade.Error.t) result
(** Apply one writer batch through the facade (catalog staleness,
    plan-cache invalidation, and compaction all happen), serialized
    against every other batch and against pin capture. Returns
    [(effective_ops, new_version)]. Schema violations surface as
    [Error (Plan _)]; existing pins are untouched (their snapshots
    are immutable). *)

val sessions_active : manager -> int

val queue_depth : manager -> int
(** Requests currently waiting for an execution slot. *)

val shed_total : manager -> int
(** Requests this manager shed with [Overloaded] since creation. *)

val pinned_versions : manager -> (int * int) list
(** [(version, readers)] for every version still pinned, ascending. *)

val kaskade : manager -> Kaskade.t
(** The wrapped facade ([Session]-external reads like STATS need
    it). Mutate only through {!submit}. *)
