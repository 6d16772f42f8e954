module Budget = Kaskade_util.Budget
module Error = Kaskade.Error
module Metrics = Kaskade_obs.Metrics
module Timeseries = Kaskade_obs.Timeseries
module Health = Kaskade_obs.Health
module Tracectx = Kaskade_obs.Tracectx
module Store = Kaskade_store.Store

let log_src = Logs.Src.create "kaskade.serve" ~doc:"Kaskade serving layer"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_serve_requests =
  Metrics.counter ~help:"Wire requests parsed by the server (any verb)" "kaskade.serve_requests"

type t = {
  mgr : Session.manager;
  fd : Unix.file_descr;
  socket_path : string;
  deadline_s : float option;
  thresholds : Health.thresholds;
  ts : Timeseries.t;
  sample_every_s : float;
  stop : bool Atomic.t;
  mutable sampler : Thread.t option;  (* guarded by [hlock] *)
  handlers : (int, Thread.t) Hashtbl.t;
      (* live connection handlers by thread id, guarded by [hlock] *)
  hlock : Mutex.t;
}

let manager t = t.mgr
let timeseries t = t.ts

let create ?max_sessions ?max_inflight ?max_queue ?deadline_s ?mode ?thresholds
    ?(sample_every_s = 1.0) ?timeseries_capacity ~socket ks =
  (* A dropped peer must be an [EPIPE] error on write, not a fatal
     SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists socket then Unix.unlink socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  {
    mgr = Session.create_manager ?max_sessions ?max_inflight ?max_queue ?mode ks;
    fd;
    socket_path = socket;
    deadline_s;
    thresholds = Option.value ~default:Health.default_thresholds thresholds;
    ts = Timeseries.create ?capacity:timeseries_capacity ();
    sample_every_s = Stdlib.max 0.01 sample_every_s;
    stop = Atomic.make false;
    sampler = None;
    handlers = Hashtbl.create 16;
    hlock = Mutex.create ();
  }

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    (* [shutdown] (not just [close]) on the listening socket: closing
       an fd another thread is blocked in [accept] on does NOT wake
       that thread on Linux — the accept loop would sleep forever and
       [run] would never join. Shutting the socket down first fails
       the blocked [accept] with EINVAL, which the loop reads as the
       stop signal. *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let respond_all oc lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  flush oc

let respond oc line = respond_all oc [ line ]

let counter_value name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.counters_list ()))

let gauge_level name =
  Option.value ~default:0.0 (List.assoc_opt name (Metrics.gauges_list ()))

(* Store gauges ride along in STATS so operators can judge WAL growth
   without file-system access; an in-memory facade reports nothing
   extra. [wal_appends]/[wal_bytes] come from the metrics registry
   (the WAL's own counters), the sequence numbers from the store. *)
let store_fields mgr =
  match Kaskade.store (Session.kaskade mgr) with
  | None -> []
  | Some st ->
    [
      ("wal_appends", string_of_int (counter_value "kaskade.wal_appends"));
      ("wal_bytes", string_of_int (counter_value "kaskade.wal_bytes"));
      ("wal_seq", string_of_int (Store.last_seq st));
      ("snapshot_seq", string_of_int (Store.snapshot_seq st));
    ]

let live_connections t =
  Mutex.lock t.hlock;
  let n = Hashtbl.length t.handlers in
  Mutex.unlock t.hlock;
  n

let stats_line t =
  let mgr = t.mgr in
  let pinned =
    Session.pinned_versions mgr
    |> List.map (fun (v, n) -> Printf.sprintf "%d:%d" v n)
    |> String.concat ","
  in
  Wire.ok
    ([
       ("sessions", string_of_int (Session.sessions_active mgr));
       ("queue_depth", string_of_int (Session.queue_depth mgr));
       ("shed", string_of_int (Session.shed_total mgr));
       ("version", string_of_int (Kaskade.version (Session.kaskade mgr)));
       ("pinned", pinned);
       ("connections", string_of_int (live_connections t));
     ]
    @ store_fields mgr)

(* The health sample is assembled from facade accessors plus the
   latest time-series point (for the windowed shed rate — cumulative
   sheds would keep a recovered server degraded forever). *)
let health_sample t =
  let ks = Session.kaskade t.mgr in
  let wal_lag =
    match Kaskade.store ks with
    | None -> 0
    | Some st -> Store.last_seq st - Stdlib.max 0 (Store.snapshot_seq st)
  in
  let breakers_open =
    Kaskade.breaker_states ks
    |> List.filter (fun (_, b) -> Kaskade_util.Breaker.state b = Kaskade_util.Breaker.Open)
    |> List.length
  in
  let shed_rate =
    match Timeseries.latest t.ts with
    | Some p when p.Timeseries.interval_s > 0.0 ->
      let sheds = Timeseries.counter_delta p "kaskade.shed_requests" in
      let reqs = Timeseries.counter_delta p "kaskade.serve_requests" in
      if sheds = 0 then 0.0 else float_of_int sheds /. float_of_int (Stdlib.max 1 reqs)
    | _ ->
      let sheds = Session.shed_total t.mgr in
      if sheds = 0 then 0.0
      else float_of_int sheds /. float_of_int (Stdlib.max 1 (counter_value "kaskade.serve_requests"))
  in
  {
    Health.empty_sample with
    Health.wal_lag;
    stale_views = int_of_float (gauge_level "kaskade.stale_views");
    breakers_open;
    sessions = Session.sessions_active t.mgr;
    queue_depth = Session.queue_depth t.mgr;
    shed_rate;
    plan_cache_hits = counter_value "kaskade.plan_cache_hits";
    plan_cache_misses = counter_value "kaskade.plan_cache_misses";
  }

let health_line t =
  let sample = health_sample t in
  let status = Health.evaluate ~thresholds:t.thresholds sample in
  let windowed =
    match Timeseries.latest t.ts with
    | Some p when p.Timeseries.interval_s > 0.0 ->
      let p95 =
        match Timeseries.histogram_point p "kaskade.queue_wait_seconds" with
        | Some (_, _, p95, _) -> p95
        | None -> 0.0
      in
      [
        ("qps", Printf.sprintf "%.1f" (Timeseries.rate p "kaskade.serve_requests"));
        ("queue_wait_p95", Printf.sprintf "%.6f" p95);
      ]
    | _ -> []
  in
  Wire.ok
    ([
       ("status", Health.label status);
       ("reasons", String.concat "," (Health.reasons status));
       ("wal_lag", string_of_int sample.Health.wal_lag);
       ("stale_views", string_of_int sample.Health.stale_views);
       ("breakers_open", string_of_int sample.Health.breakers_open);
       ("sessions", string_of_int sample.Health.sessions);
       ("queue_depth", string_of_int sample.Health.queue_depth);
       ("shed_rate", Printf.sprintf "%.3f" sample.Health.shed_rate);
     ]
    @ windowed)

(* One request -> one response (plus row lines for [ROWS]). Returns
   [`Continue], [`Close] (connection done) or [`Shutdown]. *)
let handle_request t ~session oc line =
  match Wire.parse_request line with
  | Result.Error reason ->
    respond oc (Wire.err_msg ~label:"proto" reason);
    `Continue
  | Result.Ok req -> begin
    Metrics.incr m_serve_requests;
    let with_session f =
      match !session with
      | Some s -> f s
      | None -> respond oc (Wire.err_msg ~label:"proto" "no session: send OPEN first")
    in
    (* Parse, execution and rendering run on a worker domain; this
       thread only writes the lines it hands back. *)
    let query ~stream ~trace qtext =
      with_session (fun s ->
          let budget = Option.map (fun d -> Budget.create ~deadline_s:d ()) t.deadline_s in
          let t0 = Kaskade_obs.Trace.now_s () in
          (* The effective id — client-supplied or minted here — is
             installed for the whole run (so the qlog record and any
             collected spans carry it) and echoed in the response. *)
          let trace =
            match trace with Some id -> id | None -> Tracectx.mint ~session:(Session.id s) ()
          in
          respond_all oc
            (Session.dispatch ?budget ~trace s qtext (function
              | Result.Error e -> [ Wire.err e ]
              | Result.Ok result ->
                let rendered = Wire.render_result (Session.pinned_graph s) result in
                let rows =
                  match result with
                  | Kaskade_exec.Executor.Table tbl -> Kaskade_exec.Row.n_rows tbl
                  | Kaskade_exec.Executor.Affected n -> n
                in
                let row_lines =
                  if not stream then []
                  else
                    String.split_on_char '\n' rendered
                    |> List.filter_map (fun row -> if row = "" then None else Some ("| " ^ row))
                in
                row_lines
                @ [
                    Wire.ok
                      [
                        ("rows", string_of_int rows);
                        ("checksum", Wire.checksum rendered);
                        ("version", string_of_int (Session.pinned_version s));
                        ("seconds", Printf.sprintf "%.6f" (Kaskade_obs.Trace.now_s () -. t0));
                        ("trace", trace);
                      ];
                  ])))
    in
    match req with
    | Wire.Ping ->
      respond oc (Wire.ok [ ("pong", "1") ]);
      `Continue
    | Wire.Open -> begin
      match !session with
      | Some s ->
        respond oc (Wire.err_msg ~label:"proto" ("session " ^ Session.id s ^ " already open"));
        `Continue
      | None -> begin
        match Session.open_ t.mgr with
        | Result.Error e ->
          respond oc (Wire.err e);
          `Continue
        | Result.Ok s ->
          session := Some s;
          respond oc
            (Wire.ok
               [
                 ("session", Session.id s);
                 ("version", string_of_int (Session.pinned_version s));
               ]);
          `Continue
      end
    end
    | Wire.Query { q; trace } ->
      query ~stream:false ~trace q;
      `Continue
    | Wire.Query_rows { q; trace } ->
      query ~stream:true ~trace q;
      `Continue
    | Wire.Repin ->
      with_session (fun s ->
          respond oc (Wire.ok [ ("version", string_of_int (Session.repin s)) ]));
      `Continue
    | Wire.Update ops -> begin
      match Session.submit t.mgr ops with
      | Result.Error e ->
        respond oc (Wire.err e);
        `Continue
      | Result.Ok (applied, version) ->
        respond oc
          (Wire.ok
             [ ("applied", string_of_int applied); ("version", string_of_int version) ]);
        `Continue
    end
    | Wire.Stats ->
      respond oc (stats_line t);
      `Continue
    | Wire.Health ->
      respond oc (health_line t);
      `Continue
    | Wire.Metrics ->
      (* Prometheus exposition streams like ROWS: "| "-prefixed lines,
         then a terminal OK — so every existing client reads it. *)
      let lines =
        Metrics.to_prometheus () |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      List.iter (fun l -> respond oc ("| " ^ l)) lines;
      respond oc (Wire.ok [ ("lines", string_of_int (List.length lines)) ]);
      `Continue
    | Wire.Close -> begin
      match !session with
      | Some s ->
        Session.close s;
        session := None;
        respond oc (Wire.ok [ ("closed", Session.id s) ]);
        `Continue
      | None ->
        respond oc (Wire.err_msg ~label:"proto" "no session open");
        `Continue
    end
    | Wire.Shutdown ->
      respond oc (Wire.ok [ ("bye", "1") ]);
      `Shutdown
  end

(* Longest request line accepted, newline excluded. [input_line] would
   buffer a line of any length; past this cap the request is a
   protocol error and the connection closes. *)
let max_line_bytes = 1 lsl 20

(* [input_line] with the cap: [`Line l] (a final line without newline
   included), [`Eof] at end of input, [`Too_long] once the line
   outgrows [max_line_bytes]. Reads through the channel's buffer. *)
let read_line ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_line_bytes then `Too_long
      else begin
        Buffer.add_char buf c;
        go ()
      end
    | exception End_of_file -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
  in
  go ()

let handle_connection t conn =
  let ic = Unix.in_channel_of_descr conn in
  let oc = Unix.out_channel_of_descr conn in
  let session = ref None in
  let rec loop () =
    match read_line ic with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | `Eof -> ()
    | `Too_long -> (
      try
        respond oc
          (Wire.err_msg ~label:"proto"
             (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))
      with Sys_error _ | Unix.Unix_error _ -> ())
    | `Line line -> begin
      match handle_request t ~session oc line with
      | `Continue -> loop ()
      | `Close -> ()
      | `Shutdown -> shutdown t
      | exception (Sys_error _ | Unix.Unix_error _) ->
        (* Peer vanished mid-response; drop the connection, keep the
           server. *)
        ()
      | exception e -> (
        (* Any other exception the request raised, here or on the
           worker that ran it, is answered and the connection goes on. *)
        let reply =
          match Error.of_exn e with
          | Some err -> Wire.err err
          | None -> Wire.err_msg ~label:"internal" (Printexc.to_string e)
        in
        match respond oc reply with
        | () -> loop ()
        | exception (Sys_error _ | Unix.Unix_error _) -> ())
    end
  in
  (* Whatever ends the loop, an exception included, the session slot
     and the fd go back. *)
  Fun.protect loop ~finally:(fun () ->
      (match !session with Some s -> Session.close s | None -> ());
      try Unix.close conn with Unix.Unix_error _ -> ())

(* The sampler thread drives the time-series ring for the server's
   lifetime. An immediate first sample sets the delta baseline; the
   loop then wakes every [sample_every_s] (sliced into short sleeps so
   shutdown is prompt). *)
let start_sampler t =
  ignore (Timeseries.sample t.ts);
  let th =
    Thread.create
      (fun () ->
        let rec loop () =
          if not (Atomic.get t.stop) then begin
            let slept = ref 0.0 in
            while (not (Atomic.get t.stop)) && !slept < t.sample_every_s do
              let step = Stdlib.min 0.05 (t.sample_every_s -. !slept) in
              Unix.sleepf step;
              slept := !slept +. step
            done;
            if not (Atomic.get t.stop) then begin
              ignore (Timeseries.sample t.ts);
              loop ()
            end
          end
        in
        loop ())
      ()
  in
  Mutex.lock t.hlock;
  t.sampler <- Some th;
  Mutex.unlock t.hlock

(* A 1M-word minor heap (OCaml's default is 256k) for the serving
   domain. Every minor collection stops all domains, and parked workers
   must wake to take part: on a 2-core VM a collection took about
   0.5 ms longer with two parked workers than with none. UPDATE batches
   allocate on the serving domain, so a 4x heap makes those pauses 4x
   rarer on the write path. On OCaml 5.1, resizing the minor heap while
   another thread of the domain runs can crash the runtime, so the heap
   grows only when [run] is called on the main thread of the main
   domain — where the CLI's [serve] and a forked server child call it,
   before they start any other thread — and is never shrunk back. A
   server run on another thread, as the tests run it beside their
   clients, keeps the heap it has. *)
let grow_minor_heap () =
  let words = 1 lsl 20 in
  if
    Domain.is_main_domain ()
    && Thread.id (Thread.self ()) = 0
    && (Gc.get ()).Gc.minor_heap_size < words
  then Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

let run t =
  grow_minor_heap ();
  (* A server that cannot start its workers stops listening rather
     than leave clients waiting. *)
  let workers =
    try Session.start_workers t.mgr
    with e ->
      shutdown t;
      raise e
  in
  start_sampler t;
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.accept t.fd with
      | conn, _ ->
        (* Registered under [hlock] before the handler can take it to
           deregister itself, so a finished connection never lingers
           in [handlers]. *)
        Mutex.lock t.hlock;
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.lock t.hlock;
                  Hashtbl.remove t.handlers (Thread.id (Thread.self ()));
                  Mutex.unlock t.hlock)
                (fun () -> handle_connection t conn))
            ()
        in
        Hashtbl.replace t.handlers (Thread.id th) th;
        Mutex.unlock t.hlock;
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* [shutdown] closed the listening fd under us. *)
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (e, _, _) ->
        Log.warn (fun k -> k "accept failed: %s" (Unix.error_message e));
        if not (Atomic.get t.stop) then accept_loop ()
    end
  in
  accept_loop ();
  shutdown t;
  (* Drain live handlers so sessions close and the socket file can be
     removed without racing a response in flight. *)
  let handlers =
    Mutex.lock t.hlock;
    let hs = Hashtbl.fold (fun _ th acc -> th :: acc) t.handlers [] in
    Mutex.unlock t.hlock;
    hs
  in
  List.iter (fun th -> try Thread.join th with _ -> ()) handlers;
  Session.stop_workers workers;
  let sampler =
    Mutex.lock t.hlock;
    let s = t.sampler in
    Mutex.unlock t.hlock;
    s
  in
  (match sampler with Some th -> (try Thread.join th with _ -> ()) | None -> ());
  if Sys.file_exists t.socket_path then try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()
