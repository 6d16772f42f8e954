module Graph = Kaskade_graph.Graph
module Executor = Kaskade_exec.Executor
module Row = Kaskade_exec.Row
module Budget = Kaskade_util.Budget
module Metrics = Kaskade_obs.Metrics
module Qlog = Kaskade_obs.Qlog
module Trace = Kaskade_obs.Trace
module Error = Kaskade.Error

let g_sessions_active =
  Metrics.gauge ~help:"Live serving-layer sessions" "kaskade.sessions_active"

let g_queue_depth =
  Metrics.gauge ~help:"Requests waiting for an execution slot" "kaskade.queue_depth"

let m_shed_requests =
  Metrics.counter ~help:"Requests shed by admission control (Overloaded)"
    "kaskade.shed_requests"

let h_queue_wait_seconds =
  Metrics.histogram ~help:"Admission-queue wait before execution (seconds)"
    "kaskade.queue_wait_seconds"

(* A wake-up one thread blocks on, with an optional time limit.
   OCaml's [Condition] has no timed wait, so a socket pair stands in:
   [signal] writes a byte, [wait] reads with [SO_RCVTIMEO] as the
   limit. Wake-ups can be stale, so every waiter re-checks its
   condition in a loop. *)
module Wake = struct
  type t = { r : Unix.file_descr; w : Unix.file_descr; buf : Bytes.t; mutable limit : float }

  let create () =
    let r, w = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* A full buffer already holds a pending wake-up. *)
    Unix.set_nonblock w;
    { r; w; buf = Bytes.create 64; limit = 0.0 }

  let signal t = try ignore (Unix.single_write_substring t.w "!" 0 1) with Unix.Unix_error _ -> ()

  (* A zero [SO_RCVTIMEO] means no limit, so a positive remainder is
     floored at 0.1 ms rather than rounded down to it. *)
  let wait t timeout_s =
    let limit = match timeout_s with None -> 0.0 | Some s -> Float.max 1e-4 s in
    if limit <> t.limit then begin
      Unix.setsockopt_float t.r Unix.SO_RCVTIMEO limit;
      t.limit <- limit
    end;
    try ignore (Unix.read t.r t.buf 0 (Bytes.length t.buf))
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

  let close t =
    Unix.close t.r;
    Unix.close t.w
end

(* A served request is [Admitted] once it holds a slot: only a
   [Queued] one can expire. *)
type state = Queued | Admitted | Done | Expired

type manager = {
  ks : Kaskade.t;
  lock : Mutex.t;
  work : Condition.t;  (* parked workers wait here for a job *)
  max_sessions : int;
  max_inflight : int;
  max_queue : int;
  mode : Executor.mode;
  mutable inflight : int;
  mutable queued : int;  (* callers and jobs waiting for a slot *)
  mutable shed : int;
  mutable next_id : int;
  sessions : (string, t) Hashtbl.t;
  mutable waiting : t list;  (* sessions whose caller waits in {!admit} *)
  ready : job Queue.t;  (* admitted jobs, one per parked worker claimed *)
  backlog : job Queue.t;  (* queued jobs, oldest first *)
  mutable parked : int;
  mutable stopping : bool;
}

and t = {
  sid : string;
  mgr : manager;
  mutable pinned : (int * Graph.t) option;  (* None after close *)
  mutable ctx : Executor.ctx option;  (* lazy, rebuilt on repin *)
  mutable wake : Wake.t option;  (* lazy: an in-process session that never queues needs none *)
}

(* One served request: [run] executes on a worker domain, given its
   queue wait; [state] moves under the manager lock. *)
and job = { owner : t; since : float; mutable state : state; run : float -> unit }

let create_manager ?(max_sessions = 64) ?(max_inflight = 4) ?(max_queue = 16)
    ?(mode = Executor.Distinct_endpoints) ks =
  {
    ks;
    lock = Mutex.create ();
    work = Condition.create ();
    max_sessions = Stdlib.max 1 max_sessions;
    max_inflight = Stdlib.max 1 max_inflight;
    max_queue = Stdlib.max 0 max_queue;
    mode;
    inflight = 0;
    queued = 0;
    shed = 0;
    next_id = 0;
    sessions = Hashtbl.create 16;
    waiting = [];
    ready = Queue.create ();
    backlog = Queue.create ();
    parked = 0;
    stopping = false;
  }

let locked mgr f =
  Mutex.lock mgr.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock mgr.lock) f

let kaskade mgr = mgr.ks
let sessions_active mgr = locked mgr (fun () -> Hashtbl.length mgr.sessions)
let queue_depth mgr = locked mgr (fun () -> mgr.queued)
let shed_total mgr = locked mgr (fun () -> mgr.shed)
let pinned_versions mgr = locked mgr (fun () -> Graph.Overlay.pinned_versions (Kaskade.overlay mgr.ks))

let shed_unlocked mgr ~resource ~capacity ~in_use =
  mgr.shed <- mgr.shed + 1;
  Metrics.incr m_shed_requests;
  Error.Overloaded { resource; capacity; in_use }

let open_ mgr =
  locked mgr (fun () ->
      let live = Hashtbl.length mgr.sessions in
      if live >= mgr.max_sessions then
        Result.Error (shed_unlocked mgr ~resource:"sessions" ~capacity:mgr.max_sessions ~in_use:live)
      else begin
        mgr.next_id <- mgr.next_id + 1;
        let sid = Printf.sprintf "s%d" mgr.next_id in
        let pinned = Graph.Overlay.pin (Kaskade.overlay mgr.ks) in
        let s = { sid; mgr; pinned = Some pinned; ctx = None; wake = None } in
        Hashtbl.add mgr.sessions sid s;
        Metrics.set_gauge g_sessions_active (float_of_int (Hashtbl.length mgr.sessions));
        Ok s
      end)

let id s = s.sid

let pinned s =
  match s.pinned with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Session: %s is closed" s.sid)

let pinned_version s = fst (pinned s)
let pinned_graph s = snd (pinned s)

(* Per-session executor context over the pinned frozen graph. No pool:
   a session context never spawns worker domains, so any number of
   sessions can execute concurrently without sharing mutable state.
   [planner:true] matches the facade's contexts, keeping session
   results byte-identical to a serial [Kaskade.query ~target:Base] at
   the same version. *)
let ctx s =
  match s.ctx with
  | Some c -> c
  | None ->
    let c = Executor.create ~mode:s.mgr.mode ~planner:true (pinned_graph s) in
    s.ctx <- Some c;
    c

let close s =
  locked s.mgr (fun () ->
      match s.pinned with
      | None -> ()
      | Some (v, _) ->
        Graph.Overlay.unpin (Kaskade.overlay s.mgr.ks) v;
        s.pinned <- None;
        s.ctx <- None;
        Option.iter Wake.close s.wake;
        s.wake <- None;
        Hashtbl.remove s.mgr.sessions s.sid;
        Metrics.set_gauge g_sessions_active (float_of_int (Hashtbl.length s.mgr.sessions)))

let repin s =
  locked s.mgr (fun () ->
      let v, _ = pinned s in
      let overlay = Kaskade.overlay s.mgr.ks in
      if Graph.Overlay.version overlay = v then v
      else begin
        Graph.Overlay.unpin overlay v;
        let pinned = Graph.Overlay.pin overlay in
        s.pinned <- Some pinned;
        s.ctx <- None;
        fst pinned
      end)

(* Created by the session's own thread before anyone else can signal
   it; signaled only under the manager lock. *)
let wake s =
  match s.wake with
  | Some w -> w
  | None ->
    let w = Wake.create () in
    s.wake <- Some w;
    w

(* ---- Admission ---------------------------------------------------------

   At most [max_inflight] requests hold an execution slot; at most
   [max_queue] more wait for one, whether they are in-process callers
   of {!run} (waiting on their session's wake-up) or served requests
   of {!dispatch} (waiting in [backlog] for a worker). Everything
   below runs under the manager lock. *)

let shed_queue mgr = shed_unlocked mgr ~resource:"queue" ~capacity:mgr.max_queue ~in_use:mgr.queued

let set_queued mgr n =
  mgr.queued <- n;
  Metrics.set_gauge g_queue_depth (float_of_int n)

(* A queued request takes a slot; the wait it reports is observed. *)
let take_slot mgr ~since =
  set_queued mgr (mgr.queued - 1);
  mgr.inflight <- mgr.inflight + 1;
  let dt = Trace.now_s () -. since in
  Metrics.observe h_queue_wait_seconds dt;
  dt

let expired ~deadline ~since =
  Error.Budget_exhausted
    {
      stage = Budget.Execute;
      detail =
        Printf.sprintf "deadline of %.3fs expired after %.3fs in admission queue" deadline
          (Trace.now_s () -. since);
    }

(* Time left on [budget]'s deadline, if it has one. *)
let remaining budget =
  Option.bind budget (fun b -> Option.map (fun d -> (d, d -. Budget.elapsed_s b)) (Budget.deadline_s b))

(* A freed slot can admit a waiting caller or a backlogged job. *)
let release_unlocked mgr =
  mgr.inflight <- mgr.inflight - 1;
  List.iter (fun s -> Option.iter Wake.signal s.wake) mgr.waiting;
  if not (Queue.is_empty mgr.backlog) then Condition.signal mgr.work

(* Take a slot for an in-process caller. Returns the queue wait in
   seconds. *)
let admit ?budget s =
  let mgr = s.mgr in
  Mutex.lock mgr.lock;
  if mgr.inflight < mgr.max_inflight then begin
    mgr.inflight <- mgr.inflight + 1;
    Mutex.unlock mgr.lock;
    Result.Ok 0.0
  end
  else if mgr.queued >= mgr.max_queue then begin
    let e = shed_queue mgr in
    Mutex.unlock mgr.lock;
    Result.Error e
  end
  else begin
    let since = Trace.now_s () in
    let w = wake s in
    set_queued mgr (mgr.queued + 1);
    mgr.waiting <- s :: mgr.waiting;
    let leave () = mgr.waiting <- List.filter (fun x -> x != s) mgr.waiting in
    let rec wait () =
      if mgr.inflight < mgr.max_inflight then begin
        leave ();
        let dt = take_slot mgr ~since in
        Mutex.unlock mgr.lock;
        Result.Ok dt
      end
      else
        match remaining budget with
        | Some (deadline, left) when left <= 0.0 ->
          leave ();
          set_queued mgr (mgr.queued - 1);
          Mutex.unlock mgr.lock;
          Result.Error (expired ~deadline ~since)
        | left ->
          Mutex.unlock mgr.lock;
          Wake.wait w (Option.map snd left);
          Mutex.lock mgr.lock;
          wait ()
    in
    wait ()
  end

(* ---- Execution -------------------------------------------------------- *)

let log_failed ?budget ?trace s q e =
  ignore
    (Qlog.add
       ?budget:(Option.map Budget.describe budget)
       ?trace ~session:s.sid ~query:(Kaskade_query.Pretty.to_string q)
       ~outcome:(Qlog.Failed (Error.label e)) ~rows:0 ~seconds:0.0 ())

(* Run [q] in a slot already held, logging one qlog record. *)
let execute ?budget ~queue_wait_s s q =
  let t0 = Trace.now_s () in
  let log outcome rows =
    ignore
      (Qlog.add
         ?budget:(Option.map Budget.describe budget)
         ~session:s.sid ~queue_wait_s
         ~query:(Kaskade_query.Pretty.to_string q)
         ~outcome ~rows ~seconds:(Trace.now_s () -. t0) ())
  in
  match Error.guard (fun () -> Executor.run ?budget (ctx s) q) with
  | Result.Ok result ->
    let rows =
      match result with Executor.Table tbl -> Row.n_rows tbl | Executor.Affected n -> n
    in
    log Qlog.Fallback rows;
    Result.Ok result
  | Result.Error e ->
    log (Qlog.Failed (Error.label e)) 0;
    Result.Error e

(* The request's trace context wraps admission *and* execution, so a
   shed is attributable to the same id the client supplied — the qlog
   record picks the ambient id up via [Qlog.add]'s default. *)
let with_trace trace f =
  match trace with None -> f () | Some id -> Kaskade_obs.Tracectx.with_ctx id f

let run ?budget ?trace s q =
  with_trace trace @@ fun () ->
  match admit ?budget s with
  | Result.Error e ->
    log_failed ?budget s q e;
    Result.Error e
  | Result.Ok queue_wait_s ->
    Fun.protect
      ~finally:(fun () -> locked s.mgr (fun () -> release_unlocked s.mgr))
      (fun () -> execute ?budget ~queue_wait_s s q)

(* ---- Worker domains ---------------------------------------------------- *)

(* A served request is admitted when a slot is free and a parked
   worker is not yet claimed by an earlier admitted job; it is queued
   when the queue has room, and shed otherwise. *)
let enqueue mgr job =
  if mgr.inflight < mgr.max_inflight && mgr.parked > Queue.length mgr.ready then begin
    mgr.inflight <- mgr.inflight + 1;
    Queue.push job mgr.ready;
    Condition.signal mgr.work;
    Result.Ok ()
  end
  else if mgr.queued >= mgr.max_queue then Result.Error (shed_queue mgr)
  else begin
    job.state <- Queued;
    set_queued mgr (mgr.queued + 1);
    Queue.push job mgr.backlog;
    Result.Ok ()
  end

(* The next job for a worker with its queue wait, parking until there
   is one; [None] once the workers are stopping and nothing can run. *)
let rec next_job mgr =
  match Queue.take_opt mgr.ready with
  | Some j -> Some (j, 0.0)
  | None -> (
    match Queue.peek_opt mgr.backlog with
    | Some j when j.state = Expired ->
      ignore (Queue.pop mgr.backlog);
      next_job mgr
    | Some j when mgr.inflight < mgr.max_inflight ->
      ignore (Queue.pop mgr.backlog);
      j.state <- Admitted;
      Some (j, take_slot mgr ~since:j.since)
    | _ when mgr.stopping -> None
    | _ ->
      mgr.parked <- mgr.parked + 1;
      Condition.wait mgr.work mgr.lock;
      mgr.parked <- mgr.parked - 1;
      next_job mgr)

(* A worker's loop. [Done] and the owner's wake-up are set under the
   lock the worker holds until it parks again, so a client that sees
   its answer finds the worker free for its next request. *)
let work mgr =
  Mutex.lock mgr.lock;
  let rec loop () =
    match next_job mgr with
    | None -> Mutex.unlock mgr.lock
    | Some (j, queue_wait_s) ->
      Mutex.unlock mgr.lock;
      j.run queue_wait_s;
      Mutex.lock mgr.lock;
      j.state <- Done;
      release_unlocked mgr;
      Option.iter Wake.signal j.owner.wake;
      loop ()
  in
  loop ()

type workers = { wmgr : manager; domains : unit Domain.t list }

let stop_workers w =
  locked w.wmgr (fun () ->
      w.wmgr.stopping <- true;
      Condition.broadcast w.wmgr.work);
  List.iter Domain.join w.domains

let start_workers mgr =
  locked mgr (fun () -> mgr.stopping <- false);
  let n = Stdlib.min mgr.max_inflight (Domain.recommended_domain_count ()) in
  let domains = ref [] in
  (try
     for _ = 1 to n do
       domains := Domain.spawn (fun () -> work mgr) :: !domains
     done
   with e ->
     stop_workers { wmgr = mgr; domains = !domains };
     raise e);
  { wmgr = mgr; domains = !domains }

let dispatch ?budget ?trace s text k =
  let mgr = s.mgr in
  let w = wake s in
  let out = ref None in
  let run queue_wait_s =
    out :=
      Some
        (match
           with_trace trace (fun () ->
               k (Result.bind (Kaskade.parse_result text) (execute ?budget ~queue_wait_s s)))
         with
        | v -> Ok v
        | exception e -> Error e)
  in
  (* Refused before execution: a parse error wins, as it would have
     run first; otherwise the refusal is logged like {!run}'s. *)
  let refuse e =
    k
      (Result.bind (Kaskade.parse_result text) (fun q ->
           log_failed ?budget ?trace s q e;
           Result.Error e))
  in
  let job = { owner = s; since = Trace.now_s (); state = Admitted; run } in
  Mutex.lock mgr.lock;
  match enqueue mgr job with
  | Result.Error e ->
    Mutex.unlock mgr.lock;
    refuse e
  | Result.Ok () ->
    let rec await () =
      match (job.state, remaining budget) with
      | Done, _ -> (
        Mutex.unlock mgr.lock;
        match !out with Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      | Queued, Some (deadline, left) when left <= 0.0 ->
        job.state <- Expired;
        set_queued mgr (mgr.queued - 1);
        Mutex.unlock mgr.lock;
        refuse (expired ~deadline ~since:job.since)
      | state, left ->
        Mutex.unlock mgr.lock;
        Wake.wait w (if state = Queued then Option.map snd left else None);
        Mutex.lock mgr.lock;
        await ()
    in
    await ()

let submit mgr ops =
  locked mgr (fun () ->
      Error.guard (fun () ->
          (* [Update.batch] discards the effective-op list; every
             effective op bumps the overlay version (compaction does
             not), so the version delta is the effective count. *)
          let v0 = Graph.Overlay.version (Kaskade.overlay mgr.ks) in
          Kaskade.Update.batch ops mgr.ks;
          let v1 = Graph.Overlay.version (Kaskade.overlay mgr.ks) in
          (v1 - v0, v1)))
