(* The serving layer end to end: overlay snapshot pinning, the
   session/MVCC property (concurrent pinned readers are byte-identical
   to a serial run at their pinned version while a writer streams
   batches), admission control sheds as typed [Overloaded], and the
   wire protocol round-trips. *)

open Kaskade_graph
module K = Kaskade
module Serve = Kaskade_serve
module Session = Serve.Session
module Wire = Serve.Wire
module Executor = Kaskade_exec.Executor
module Overlay = Graph.Overlay
module Mutate = Kaskade_gen.Mutate
module Budget = Kaskade_util.Budget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected facade error: %s" (K.Error.to_string e)

let prov () =
  Kaskade_gen.Provenance_gen.(generate { default with jobs = 60; files = 120; seed = 11 })

(* Serial reference: the same executor configuration a session uses. *)
let serial_render g q =
  let ctx = Executor.create ~mode:Executor.Distinct_endpoints ~planner:true g in
  Wire.render_result g (Executor.run ctx q)

(* ------------------------------------------------------------------ *)
(* Overlay pinning                                                     *)

let test_overlay_pin_unpin () =
  let g = prov () in
  let o = Overlay.create g in
  check_int "nothing pinned" 0 (Overlay.pin_count o);
  let v0, g0 = Overlay.pin o in
  check_int "pins version 0" 0 v0;
  check_bool "pin of a clean overlay is the base" true (g0 == g);
  let v0', _ = Overlay.pin o in
  check_int "same version" v0 v0';
  Alcotest.(check (list (pair int int))) "two readers on v0" [ (0, 2) ]
    (Overlay.pinned_versions o);
  Overlay.insert_vertex o ~vtype:"File" () |> ignore;
  let v1, g1 = Overlay.pin o in
  check_int "new pin sees the new version" 1 v1;
  check_bool "snapshots differ" true (Graph.n_vertices g1 = Graph.n_vertices g0 + 1);
  Alcotest.(check (list (pair int int))) "both versions pinned" [ (0, 2); (1, 1) ]
    (Overlay.pinned_versions o);
  check_int "three pins total" 3 (Overlay.pin_count o);
  Overlay.unpin o v0;
  Overlay.unpin o v0;
  Overlay.unpin o v1;
  check_int "all released" 0 (Overlay.pin_count o);
  check_bool "unpinning an unpinned version raises" true
    (try Overlay.unpin o v0; false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)

let test_error_of_exn () =
  (match K.Error.of_exn (Unix.Unix_error (Unix.EPIPE, "write", "")) with
  | Some (K.Error.Io msg) -> check_bool "message names the syscall" true
      (String.length msg > 0 && String.sub msg 0 5 = "write")
  | other ->
    Alcotest.failf "Unix_error not mapped to Io: %s"
      (match other with Some e -> K.Error.to_string e | None -> "None"));
  match K.Error.of_exn (K.Error.Overload { resource = "queue"; capacity = 4; in_use = 4 }) with
  | Some (K.Error.Overloaded { resource = "queue"; capacity = 4; in_use = 4 } as e) ->
    check_string "label" "overloaded" (K.Error.label e)
  | _ -> Alcotest.fail "Overload exception not mapped to Overloaded"

(* ------------------------------------------------------------------ *)
(* Sessions: MVCC reads against a concurrent writer                    *)

let mvcc_queries =
  [ "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f";
    "MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j";
    "SELECT COUNT(*) FROM (MATCH (a:Job)-[r*1..2]->(b:Job) RETURN a, b)" ]

let test_mvcc_pinned_readers () =
  let g = prov () in
  let ks = K.make g in
  let mgr = Session.create_manager ks in
  let queries = List.map K.parse mvcc_queries in
  (* Reference rendering at the version the readers will pin. *)
  let reference = List.map (serial_render g) queries in
  let readers = 3 and replays = 8 and batches = 30 in
  let sessions = List.init readers (fun _ -> qok (Session.open_ mgr)) in
  List.iter (fun s -> check_int "pinned at v0" 0 (Session.pinned_version s)) sessions;
  let mismatches = Atomic.make 0 in
  let reader s () =
    for _ = 1 to replays do
      List.iter2
        (fun q expect ->
          let rendered =
            Wire.render_result (Session.pinned_graph s) (qok (Session.run s q))
          in
          if rendered <> expect then Atomic.incr mismatches)
        queries reference
    done
  in
  let domains = List.map (fun s -> Domain.spawn (reader s)) sessions in
  (* Single writer: seeded random batches through the facade, each
     atomic under the manager lock. Version must advance by exactly
     the effective-op count every time — a torn batch would break the
     arithmetic. *)
  let version = ref 0 in
  for i = 1 to batches do
    let ops = Mutate.random_ops ~inserts:3 ~deletes:2 ~seed:(1000 + i) (K.graph ks) in
    let effective, v = qok (Session.submit mgr ops) in
    check_bool "batch had effect" true (effective > 0);
    check_int "version advanced batch-atomically" (!version + effective) v;
    version := v
  done;
  List.iter Domain.join domains;
  check_int "pinned reads byte-identical to the serial run" 0 (Atomic.get mismatches);
  (* Readers were invisible to the writer and vice versa: still pinned
     at v0, while the overlay moved on. *)
  Alcotest.(check (list (pair int int))) "all readers still on v0" [ (0, readers) ]
    (Session.pinned_versions mgr);
  check_bool "writer moved the overlay" true (K.version ks > 0);
  (* Repin = read-your-writes: the session now sees the writer's graph. *)
  let s0 = List.hd sessions in
  check_int "repin lands on the current version" (K.version ks) (Session.repin s0);
  let rendered_now = Wire.render_result (Session.pinned_graph s0) (qok (Session.run s0 (List.hd queries))) in
  check_string "repinned read equals serial run on the current graph"
    (serial_render (K.graph ks) (List.hd queries)) rendered_now;
  List.iter Session.close sessions;
  List.iter Session.close sessions;  (* close is idempotent *)
  check_int "no sessions left" 0 (Session.sessions_active mgr);
  Alcotest.(check (list (pair int int))) "no pins left" [] (Session.pinned_versions mgr)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let test_session_cap_sheds () =
  let ks = K.make (prov ()) in
  let mgr = Session.create_manager ~max_sessions:2 ks in
  let s1 = qok (Session.open_ mgr) and s2 = qok (Session.open_ mgr) in
  let shed0 = Session.shed_total mgr in
  (match Session.open_ mgr with
  | Error (K.Error.Overloaded { resource = "sessions"; capacity = 2; in_use = 2 }) -> ()
  | Error e -> Alcotest.failf "wrong shed error: %s" (K.Error.to_string e)
  | Ok _ -> Alcotest.fail "third session admitted above the cap");
  check_int "shed counted" (shed0 + 1) (Session.shed_total mgr);
  Session.close s1;
  (* Capacity freed: admission recovers. *)
  let s3 = qok (Session.open_ mgr) in
  Session.close s2;
  Session.close s3

let test_queue_sheds_under_load () =
  let ks = K.make (prov ()) in
  (* One execution slot, no queue: any request arriving while another
     executes must shed. A background session hammers a slow query;
     the foreground one retries a cheap query until it gets shed. *)
  let mgr = Session.create_manager ~max_inflight:1 ~max_queue:0 ks in
  let slow_s = qok (Session.open_ mgr) and fast_s = qok (Session.open_ mgr) in
  let slow_q = K.parse "MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a, b" in
  let fast_q = K.parse "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f" in
  let stop = Atomic.make false in
  let hammer =
    Thread.create
      (fun () -> while not (Atomic.get stop) do ignore (Session.run slow_s slow_q) done)
      ()
  in
  let shed = ref None in
  let attempts = ref 0 in
  while !shed = None && !attempts < 2_000 do
    incr attempts;
    match Session.run fast_s fast_q with
    | Error (K.Error.Overloaded _ as e) -> shed := Some e
    | _ -> Thread.yield ()
  done;
  Atomic.set stop true;
  Thread.join hammer;
  (match !shed with
  | Some (K.Error.Overloaded { resource; _ }) -> check_string "queue shed" "queue" resource
  | _ -> Alcotest.fail "no request shed while the only slot was busy");
  (* Load gone: the same request is admitted again. *)
  ignore (qok (Session.run fast_s fast_q));
  Session.close slow_s;
  Session.close fast_s

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let test_wire_parse_request () =
  let ok = function Ok r -> r | Error e -> Alcotest.failf "parse failed: %s" e in
  check_bool "ping" true (ok (Wire.parse_request "PING") = Wire.Ping);
  check_bool "open" true (ok (Wire.parse_request "OPEN") = Wire.Open);
  check_bool "query keeps spaces" true
    (ok (Wire.parse_request "Q MATCH (a:Job) RETURN a")
    = Wire.Query { q = "MATCH (a:Job) RETURN a"; trace = None });
  check_bool "rows variant" true
    (ok (Wire.parse_request "ROWS MATCH (a:Job) RETURN a")
    = Wire.Query_rows { q = "MATCH (a:Job) RETURN a"; trace = None });
  check_bool "query with trace id" true
    (ok (Wire.parse_request "Q trace=00deadbeef123abc MATCH (a:Job) RETURN a")
    = Wire.Query { q = "MATCH (a:Job) RETURN a"; trace = Some "00deadbeef123abc" });
  check_bool "bad trace id rejected" true
    (Result.is_error (Wire.parse_request "Q trace=xyz MATCH (a:Job) RETURN a"));
  check_bool "trace without query rejected" true
    (Result.is_error (Wire.parse_request "Q trace=00deadbeef123abc"));
  check_bool "health verb" true (ok (Wire.parse_request "HEALTH") = Wire.Health);
  check_bool "metrics verb" true (ok (Wire.parse_request "METRICS") = Wire.Metrics);
  (match ok (Wire.parse_request "UPDATE insert-vertex:File;insert-edge:3:4:WRITES_TO;delete-edge:1:2:IS_READ_BY") with
  | Wire.Update
      [ K.Update.Insert_vertex { vtype = "File"; props = [] };
        K.Update.Insert_edge { src = 3; dst = 4; etype = "WRITES_TO"; props = [] };
        K.Update.Delete_edge { src = 1; dst = 2; etype = "IS_READ_BY" } ] -> ()
  | _ -> Alcotest.fail "update ops misparsed");
  check_bool "empty query rejected" true (Result.is_error (Wire.parse_request "Q"));
  check_bool "unknown verb rejected" true (Result.is_error (Wire.parse_request "FROB x"));
  check_bool "bad op rejected" true (Result.is_error (Wire.parse_request "UPDATE drop-table:x"))

let test_wire_fields_roundtrip () =
  let line = Wire.ok [ ("rows", "12"); ("checksum", "ab12"); ("version", "3") ] in
  (match Wire.fields line with
  | Some [ ("_status", "ok"); ("rows", "12"); ("checksum", "ab12"); ("version", "3") ] -> ()
  | _ -> Alcotest.failf "ok fields misparsed: %s" line);
  let e = K.Error.Overloaded { resource = "queue"; capacity = 4; in_use = 4 } in
  (match Wire.fields (Wire.err e) with
  | Some (("_status", "err") :: ("label", "overloaded") :: ("msg", msg) :: _) ->
    check_string "message round-trips (with spaces)" (K.Error.to_string e) msg
  | _ -> Alcotest.failf "err fields misparsed: %s" (Wire.err e));
  check_bool "row lines are not fields" true (Wire.fields "| a -> b" = None)

(* Hostile input: the parsers of request and response lines must
   return (an [Error] or [None] for garbage), never raise, on arbitrary
   bytes and on valid lines with bytes inserted, deleted, replaced or
   cut off. *)
let wire_seed_lines =
  [ "PING"; "OPEN"; "Q MATCH (a:Job) RETURN a"; "ROWS MATCH (a:Job) RETURN a";
    "Q trace=00deadbeef123abc MATCH (a:Job)-[r*1..2]->(b:Job) RETURN a, b"; "REPIN";
    "UPDATE insert-vertex:File;insert-edge:3:4:WRITES_TO;delete-edge:1:2:IS_READ_BY"; "STATS";
    "HEALTH"; "METRICS"; "CLOSE"; "SHUTDOWN";
    Wire.ok [ ("rows", "12"); ("checksum", "ab12"); ("version", "3") ];
    Wire.err (K.Error.Overloaded { resource = "queue"; capacity = 4; in_use = 4 });
    Wire.err_msg ~label:"proto" "request line exceeds 1048576 bytes" ]

let mutate line edits =
  List.fold_left
    (fun s (kind, pos, c) ->
      let n = String.length s in
      let i = if n = 0 then 0 else pos mod (n + 1) in
      match kind mod 4 with
      | 0 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | 2 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
      | _ -> String.sub s 0 i)
    line edits

let wire_never_raises s =
  match (Wire.parse_request s, Wire.fields s) with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s

let prop_wire_arbitrary_bytes =
  QCheck.Test.make ~name:"parsers never raise on arbitrary bytes" ~count:2000
    QCheck.(string_gen Gen.char)
    wire_never_raises

let prop_wire_mutated_lines =
  QCheck.Test.make ~name:"parsers never raise on mutated lines" ~count:2000
    QCheck.(
      pair (oneofl wire_seed_lines)
        (small_list (triple small_nat small_nat (make ~print:Print.char Gen.char))))
    (fun (line, edits) -> wire_never_raises (mutate line edits))

(* ------------------------------------------------------------------ *)
(* Server over a real socket                                           *)

let test_server_socket_roundtrip () =
  let ks = K.make (prov ()) in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-%d.sock" (Unix.getpid ()))
  in
  let server = Serve.Server.create ~max_sessions:4 ~socket ks in
  let th = Thread.create (fun () -> Serve.Server.run server) () in
  let c = Serve.Client.connect socket in
  let req line = Serve.Client.status (Serve.Client.request c line) in
  check_string "ping" "1" (List.assoc "pong" (req "PING"));
  check_string "open pins v0" "0" (List.assoc "version" (req "OPEN"));
  let q = List.hd mvcc_queries in
  let kvs = req ("Q " ^ q) in
  check_string "query ok" "ok" (List.assoc "_status" kvs);
  check_string "checksum matches the serial run" (Wire.checksum (serial_render (K.graph ks) (K.parse q)))
    (List.assoc "checksum" kvs);
  (* ROWS streams the rendered table (prefixed lines), then the same
     terminal line Q produces. *)
  let lines = Serve.Client.request c ("ROWS " ^ q) in
  let rows = List.filter (fun l -> String.length l >= 2 && String.sub l 0 2 = "| ") lines in
  check_bool "row lines streamed" true (rows <> []);
  check_string "ROWS checksum agrees with Q" (List.assoc "checksum" kvs)
    (List.assoc "checksum" (Serve.Client.status lines));
  let kvs = req "UPDATE insert-vertex:File" in
  check_string "update applied" "1" (List.assoc "applied" kvs);
  check_string "still reading the pinned snapshot" (List.assoc "checksum" (req ("Q " ^ q)))
    (Wire.checksum (serial_render (K.graph ks) (K.parse q)));
  check_string "bad query is a typed ERR" "err" (List.assoc "_status" (req "Q MATCH ("));
  check_string "protocol violation labelled" "proto"
    (List.assoc "label" (Serve.Client.status (Serve.Client.request c "FROB")));
  check_string "stats sees the session" "1" (List.assoc "sessions" (req "STATS"));
  check_string "close" "ok" (List.assoc "_status" (req "CLOSE"));
  check_string "shutdown" "1" (List.assoc "bye" (req "SHUTDOWN"));
  Serve.Client.close c;
  Thread.join th;
  check_bool "socket file removed" false (Sys.file_exists socket)

(* One socket query = one trace id, observable end to end: echoed in
   the wire response, stamped into the qlog record next to the session
   id, and counted by the METRICS / HEALTH / STATS surfaces. Durable
   config, so STATS carries the store gauges too. *)
let test_server_trace_health_metrics () =
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-serve-obs-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let ks = K.make ~config:{ K.Config.default with K.Config.data_dir = Some dir } (prov ()) in
  let socket = Filename.concat dir "kaskade.sock" in
  let server = Serve.Server.create ~max_sessions:4 ~sample_every_s:0.05 ~socket ks in
  let th = Thread.create (fun () -> Serve.Server.run server) () in
  let c = Serve.Client.connect socket in
  let req line = Serve.Client.status (Serve.Client.request c line) in
  ignore (req "OPEN");
  Kaskade_obs.Qlog.clear ();
  let q = List.hd mvcc_queries in
  let id = Kaskade_obs.Tracectx.mint () in
  let kvs = req (Printf.sprintf "Q trace=%s %s" id q) in
  check_string "query ok" "ok" (List.assoc "_status" kvs);
  check_string "client trace id echoed" id (List.assoc "trace" kvs);
  (match List.rev (Kaskade_obs.Qlog.records ()) with
  | last :: _ ->
    check_bool "qlog record carries the trace id" true
      (last.Kaskade_obs.Qlog.trace = Some id);
    check_bool "qlog record names the session" true (last.Kaskade_obs.Qlog.session <> None)
  | [] -> Alcotest.fail "no qlog record for the served query");
  let minted = List.assoc "trace" (req ("Q " ^ q)) in
  check_bool "server mints a valid trace id" true (Kaskade_obs.Tracectx.is_valid minted);
  check_bool "minted id is fresh" true (minted <> id);
  (* HEALTH: a quiet durable server is ok, and the response carries
     the judged admission signals. *)
  let h = req "HEALTH" in
  check_string "health responds ok" "ok" (List.assoc "_status" h);
  check_string "quiet server is healthy" "ok" (List.assoc "status" h);
  check_bool "health reports queue depth" true (List.mem_assoc "queue_depth" h);
  check_bool "health reports shed rate" true (List.mem_assoc "shed_rate" h);
  (* STATS: store gauges ride along under a durable config. *)
  let s = req "STATS" in
  List.iter
    (fun k -> check_bool ("stats has " ^ k) true (List.mem_assoc k s))
    [ "wal_appends"; "wal_bytes"; "wal_seq"; "snapshot_seq" ];
  (* METRICS: the Prometheus page streams as prefixed lines, and the
     serve-request counter has counted this connection's requests. *)
  let lines = Serve.Client.request c "METRICS" in
  let body =
    List.filter_map
      (fun l ->
        if String.length l >= 2 && String.sub l 0 2 = "| " then
          Some (String.sub l 2 (String.length l - 2))
        else None)
      lines
  in
  check_bool "metrics lines streamed" true (body <> []);
  let starts_with p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  check_bool "serve request counter exposed" true
    (List.exists (starts_with "kaskade_serve_requests_total") body);
  check_bool "slow-query counter exposed" true
    (List.exists (starts_with "kaskade_slow_queries_total") body);
  check_string "metrics terminal ok" "ok" (List.assoc "_status" (Serve.Client.status lines));
  ignore (req "CLOSE");
  ignore (req "SHUTDOWN");
  Serve.Client.close c;
  Thread.join th;
  rm_rf dir

(* A server socket in the temp dir, [run] on its own thread. *)
let start_server ?(ks = K.make (prov ())) ?(max_sessions = 4) name =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-%s-%d.sock" name (Unix.getpid ()))
  in
  let server = Serve.Server.create ~max_sessions ~socket ks in
  (socket, Thread.create (fun () -> Serve.Server.run server) ())

let stop_server socket th =
  let c = Serve.Client.connect socket in
  check_string "shutdown" "1" (List.assoc "bye" (Serve.Client.status (Serve.Client.request c "SHUTDOWN")));
  Serve.Client.close c;
  Thread.join th

(* Connection handlers deregister when their connection ends: after
   many short-lived connections, STATS counts only the live ones. The
   reap happens on the server side after the client hangs up, so the
   probe polls (bounded) for the idle value. *)
let test_server_reaps_handlers () =
  let socket, th = start_server "reap" in
  let probe = Serve.Client.connect socket in
  let connections () =
    List.assoc "connections" (Serve.Client.status (Serve.Client.request probe "STATS"))
  in
  let idle = connections () in
  check_string "the probe is the only live connection" "1" idle;
  for _ = 1 to 200 do
    let c = Serve.Client.connect socket in
    check_string "open" "ok" (List.assoc "_status" (Serve.Client.status (Serve.Client.request c "OPEN")));
    check_string "close" "ok" (List.assoc "_status" (Serve.Client.status (Serve.Client.request c "CLOSE")));
    Serve.Client.close c
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec settle () =
    let n = connections () in
    if n = idle || Unix.gettimeofday () > deadline then n
    else begin
      Thread.delay 0.01;
      settle ()
    end
  in
  check_string "finished handlers are reaped" idle (settle ());
  Serve.Client.close probe;
  stop_server socket th

(* A request line past the server's cap is a typed protocol error that
   ends that connection only; the next connection is served. *)
let test_server_line_cap () =
  let socket, th = start_server "cap" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* A server that kept the connection open would block the reads
     below forever; time them out instead. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let line = Bytes.make ((2 lsl 20) + 1) 'x' in
  Bytes.set line (Bytes.length line - 1) '\n';
  (* The server hangs up mid-line, so the tail of the write may fail. *)
  (try ignore (Unix.write fd line 0 (Bytes.length line))
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (* Read to the server's hang-up: end of input, or a reset because the
     server closed with the rest of the line unread. [None] when the
     connection is still open at the timeout. *)
  let buf = Bytes.create 4096 and got = Buffer.create 256 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Some (Buffer.contents got)
    | n ->
      Buffer.add_subbytes got buf 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Some (Buffer.contents got)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  in
  (match drain () with
  | None -> Alcotest.fail "connection still open after an oversized line"
  | Some response ->
    let kvs = Serve.Client.status [ String.trim response ] in
    check_string "oversized line is an ERR" "err" (List.assoc "_status" kvs);
    check_string "labelled proto" "proto" (List.assoc "label" kvs);
    let msg = List.assoc "msg" kvs in
    check_bool "message names the cap" true
      (String.length msg >= 20 && String.sub msg 0 20 = "request line exceeds"));
  Unix.close fd;
  let c = Serve.Client.connect socket in
  check_string "next connection is served" "1"
    (List.assoc "pong" (Serve.Client.status (Serve.Client.request c "PING")));
  Serve.Client.close c;
  stop_server socket th

(* An integer literal past [max_int] is a typed parse error over the
   wire, and a connection that ends without CLOSE gives its session
   back: with [max_sessions = 2], two connections each OPEN, send one
   out-of-range literal (a LIMIT, a var-length bound) and hang up; a
   third OPEN is then admitted. Reads time out, so a handler that died
   without answering fails the test instead of hanging it. *)
let test_server_bad_literal_releases_session () =
  let socket, th = start_server ~max_sessions:2 "literal" in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let request (_, ic, oc) line =
    output_string oc (line ^ "\n");
    flush oc;
    let rec read () =
      match input_line ic with
      | l when Serve.Wire.fields l <> None -> Serve.Client.status [ l ]
      | _ -> read ()
      | exception (Sys_error _ | Sys_blocked_io | End_of_file) -> Alcotest.failf "no reply to %S" line
    in
    read ()
  in
  List.iter
    (fun q ->
      let c = connect () in
      check_string "open" "ok" (List.assoc "_status" (request c "OPEN"));
      let kvs = request c ("Q " ^ q) in
      check_string "literal is an ERR" "err" (List.assoc "_status" kvs);
      check_string "labelled parse" "parse" (List.assoc "label" kvs);
      let fd, _, _ = c in
      Unix.close fd)
    [ "MATCH (a)-[r]->(b) RETURN a LIMIT 99999999999999999999999";
      "MATCH (a)-[r*1..99999999999999999999]->(b) RETURN a" ];
  (* The handlers release on the server side after the hang-up, so
     the third OPEN retries (bounded) while it is shed. *)
  let c = connect () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec admitted () =
    let kvs = request c "OPEN" in
    if List.assoc "_status" kvs = "ok" then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      admitted ()
    end
  in
  check_bool "third OPEN admitted" true (admitted ());
  ignore (request c "CLOSE");
  let fd, _, _ = c in
  Unix.close fd;
  stop_server socket th

(* A request whose worker raises an exception that no [Error]
   constructor classifies is answered [ERR label=internal], and the
   same connection serves the next request. The qlog notifier runs on
   the worker that logs the query, so a raising notifier injects the
   exception there. *)
let test_server_worker_exception_answered () =
  let socket, th = start_server "raise" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let request line =
    output_string oc (line ^ "\n");
    flush oc;
    let rec read () =
      match input_line ic with
      | l when Serve.Wire.fields l <> None -> Serve.Client.status [ l ]
      | _ -> read ()
      | exception (Sys_error _ | Sys_blocked_io | End_of_file) -> Alcotest.failf "no reply to %S" line
    in
    read ()
  in
  check_string "open" "ok" (List.assoc "_status" (request "OPEN"));
  let q = "Q MATCH (a:Job)-[r]->(b) RETURN a" in
  let kvs =
    Fun.protect
      ~finally:(fun () -> Kaskade_obs.Qlog.set_notifier None)
      (fun () ->
        Kaskade_obs.Qlog.set_notifier ~every:1 (Some (fun _ -> raise Exit));
        request q)
  in
  check_string "raising request is an ERR" "err" (List.assoc "_status" kvs);
  check_string "labelled internal" "internal" (List.assoc "label" kvs);
  check_string "next request on the connection" "ok" (List.assoc "_status" (request q));
  ignore (request "CLOSE");
  Unix.close fd;
  stop_server socket th

(* ------------------------------------------------------------------ *)
(* Concurrency and health drill over the socket                        *)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* On prov (300 jobs, 600 files, seed 42), max 6 sessions, 4 inflight,
   queue 8: HEALTH is ok on the fresh server; 4 readers OPEN (pinning
   the opening version) and replay a typed 1-hop query 25 times each
   while a writer pushes 60 two-vertex UPDATE batches, and every read's
   checksum and version must equal a serial run on the opening graph;
   6 more OPENs past the session cap shed as typed [overloaded]; STATS
   counts the sheds and the writer's versions; PING still answers.
   Then HEALTH turns degraded with a [stale_views] reason once a
   materialized view goes stale through a wire UPDATE, and ok again
   after an in-process refresh, and the server's time-series ring holds
   both the shed storm and the stale window. *)
let test_concurrency_health_drill () =
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 }) in
  let ks = K.make g in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-drill-%d.sock" (Unix.getpid ()))
  in
  let max_sessions = 6 in
  (* A tight sampler and a zero stale-view threshold let the drill
     force ok -> degraded -> ok within the run. *)
  let server =
    Serve.Server.create ~max_sessions ~max_inflight:4 ~max_queue:8 ~sample_every_s:0.05
      ~timeseries_capacity:8192
      ~thresholds:{ Kaskade_obs.Health.default_thresholds with Kaskade_obs.Health.max_stale_views = 0 }
      ~socket ks
  in
  let server_th = Thread.create (fun () -> Serve.Server.run server) () in
  let qtext = "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f" in
  let reference = Wire.checksum (serial_render g (K.parse qtext)) in
  let field what kvs k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "%s: response has no %s" what k
  in
  let expect_ok c line =
    let kvs = Serve.Client.status (Serve.Client.request c line) in
    check_string (line ^ " accepted") "ok" (field line kvs "_status");
    kvs
  in
  let c0 = Serve.Client.connect socket in
  check_string "fresh server is healthy" "ok" (field "HEALTH" (expect_ok c0 "HEALTH") "status");
  Serve.Client.close c0;
  let readers = 4 and reads_per_reader = 25 and writer_batches = 60 in
  (* Threads cannot fail the test directly; they count instead. *)
  let torn = Atomic.make 0 and rejected = Atomic.make 0 in
  let clients =
    List.init readers (fun _ ->
        let c = Serve.Client.connect socket in
        (c, int_of_string (field "OPEN" (expect_ok c "OPEN") "version")))
  in
  let v0 = snd (List.hd clients) in
  let reader (c, v_open) =
    for _ = 1 to reads_per_reader do
      let kvs = Serve.Client.status (Serve.Client.request c ("Q " ^ qtext)) in
      if List.assoc_opt "_status" kvs <> Some "ok" then Atomic.incr rejected
      else if
        List.assoc_opt "checksum" kvs <> Some reference
        || List.assoc_opt "version" kvs <> Some (string_of_int v_open)
      then Atomic.incr torn
    done
  in
  let writer () =
    let c = Serve.Client.connect socket in
    for _ = 1 to writer_batches do
      let kvs =
        Serve.Client.status (Serve.Client.request c "UPDATE insert-vertex:File;insert-vertex:Job")
      in
      if List.assoc_opt "_status" kvs <> Some "ok" then Atomic.incr rejected
    done;
    Serve.Client.close c
  in
  List.iter Thread.join
    (Thread.create writer () :: List.map (fun cl -> Thread.create reader cl) clients);
  check_int "no request rejected" 0 (Atomic.get rejected);
  check_int "no torn reads" 0 (Atomic.get torn);
  (* The session cap is global: opens beyond it shed typed and counted. *)
  let extras = List.init max_sessions (fun _ -> Serve.Client.connect socket) in
  let sheds =
    List.fold_left
      (fun n c ->
        let kvs = Serve.Client.status (Serve.Client.request c "OPEN") in
        if field "OPEN" kvs "_status" = "err" then begin
          check_string "shed is typed" "overloaded" (field "OPEN" kvs "label");
          n + 1
        end
        else n)
      0 extras
  in
  check_bool "opens above the cap shed" true (sheds > 0);
  let probe = Serve.Client.connect socket in
  let stats = expect_ok probe "STATS" in
  check_bool "STATS counts every shed" true (int_of_string (field "STATS" stats "shed") >= sheds);
  check_bool "STATS shows the writer's versions" true
    (int_of_string (field "STATS" stats "version") >= v0 + (2 * writer_batches));
  ignore (expect_ok probe "PING");
  let wait_status want =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec go () =
      let kvs = expect_ok probe "HEALTH" in
      if field "HEALTH" kvs "status" = want || Unix.gettimeofday () > deadline then kvs
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  let sel = K.select_views ks ~queries:[ K.parse qtext ] ~budget_edges:(Graph.n_edges g) in
  check_bool "drill materialized a view" true (K.materialize_selected ks sel <> []);
  ignore (expect_ok probe "UPDATE insert-vertex:File");
  let kvs = wait_status "degraded" in
  check_string "stale views degrade health" "degraded" (field "HEALTH" kvs "status");
  check_bool "reasons name stale_views" true
    (string_contains (field "HEALTH" kvs "reasons") "stale_views");
  (* Hold the degraded state across a few sampler ticks so the ring
     records the stale window, not just the HEALTH responses. *)
  Thread.delay 0.2;
  ignore (K.Update.refresh_views ks);
  check_string "health recovers after refresh" "ok" (field "HEALTH" (wait_status "ok") "status");
  let ts = Serve.Server.timeseries server in
  let stale_level p = Kaskade_obs.Timeseries.gauge_level p "kaskade.stale_views" in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec latest_recovered () =
    let ok =
      match Kaskade_obs.Timeseries.latest ts with
      | Some p -> stale_level p = Some 0.0
      | None -> false
    in
    if ok || Unix.gettimeofday () > deadline then ok
    else begin
      Thread.delay 0.02;
      latest_recovered ()
    end
  in
  check_bool "ring's latest point is recovered" true (latest_recovered ());
  let pts = Kaskade_obs.Timeseries.points ts in
  check_bool "ring captured the shed storm" true
    (List.exists (fun p -> Kaskade_obs.Timeseries.counter_delta p "kaskade.shed_requests" > 0) pts);
  check_bool "ring captured the stale window" true
    (List.exists (fun p -> match stale_level p with Some v -> v > 0.0 | None -> false) pts);
  ignore (expect_ok probe "SHUTDOWN");
  Serve.Client.close probe;
  List.iter (fun (c, _) -> Serve.Client.close c) clients;
  List.iter Serve.Client.close extras;
  Thread.join server_th

(* The serving writer's batch stream against a durable facade (fsync
   always, no snapshots): every one of the 60 batches is logged. *)
let test_wal_logs_every_batch () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-serve-wal-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
  in
  rm_rf dir;
  let ks =
    K.make
      ~config:
        { K.Config.default with
          auto_refresh = false; data_dir = Some dir; fsync_policy = Kaskade_store.Wal.Always;
          snapshot_every = max_int }
      Kaskade_gen.Provenance_gen.(generate { default with jobs = 300; files = 600; seed = 42 })
  in
  let batches = 60 in
  for _ = 1 to batches do
    K.Update.batch
      [ Overlay.Insert_vertex { vtype = "File"; props = [] };
        Overlay.Insert_vertex { vtype = "Job"; props = [] } ]
      ks
  done;
  (match K.store ks with
  | Some s -> check_int "every batch logged" batches (Kaskade_store.Store.last_seq s)
  | None -> Alcotest.fail "durable facade has no store attached");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)

let counter name = Kaskade_obs.Metrics.(counter_value (counter name))

(* Two connections racing 300 traced queries each: the id a worker
   installs is the request's own, so every qlog record of a session
   carries an id that session sent. The queries take milliseconds, so
   runs overlap. *)
let test_server_trace_per_request () =
  let socket, th =
    start_server ~ks:(K.make Kaskade_gen.Provenance_gen.(generate { default with seed = 11 })) "trace"
  in
  let q = "SELECT COUNT(*) FROM (MATCH (a:Job)-[r*1..3]->(b:Job) RETURN a, b)" in
  let cap = Kaskade_obs.Qlog.capacity () in
  Kaskade_obs.Qlog.set_capacity 2048;
  Kaskade_obs.Qlog.clear ();
  let per_conn = 300 in
  let id k i = Printf.sprintf "%016x" (((k + 1) lsl 40) lor i) in
  let client k () =
    let c = Serve.Client.connect socket in
    let sid = List.assoc "session" (Serve.Client.status (Serve.Client.request c "OPEN")) in
    let echoed = ref 0 in
    for i = 1 to per_conn do
      let kvs = Serve.Client.status (Serve.Client.request c (Printf.sprintf "Q trace=%s %s" (id k i) q)) in
      if List.assoc_opt "trace" kvs = Some (id k i) then incr echoed
    done;
    Serve.Client.close c;
    (sid, !echoed)
  in
  let results = Array.make 2 None in
  List.iter Thread.join (List.init 2 (fun k -> Thread.create (fun () -> results.(k) <- Some (client k ())) ()));
  let records = Kaskade_obs.Qlog.records () in
  Array.iteri
    (fun k r ->
      let sid, echoed = Option.get r in
      check_int "every response echoes its id" per_conn echoed;
      let mine = List.filter (fun r -> r.Kaskade_obs.Qlog.session = Some sid) records in
      check_int "one record per request" per_conn (List.length mine);
      let own r =
        match r.Kaskade_obs.Qlog.trace with
        | Some t -> String.length t = 16 && Int64.(shift_right (of_string ("0x" ^ t)) 40) = Int64.of_int (k + 1)
        | None -> false
      in
      check_int "every record carries an id its session sent" per_conn (List.length (List.filter own mine)))
    results;
  Kaskade_obs.Qlog.set_capacity cap;
  stop_server socket th

(* A queued request whose deadline passes while the only slot is held
   fails at the deadline without executing — over the socket and in
   process. The slot is held by an in-process run whose qlog append
   blocks until released, or for 2 s at most, so a request that does
   not expire fails the timing checks rather than hanging. *)
let test_queue_deadline_expires () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-test-deadline-%d.sock" (Unix.getpid ()))
  in
  let deadline = 0.05 in
  let server =
    Serve.Server.create ~max_sessions:4 ~max_inflight:1 ~max_queue:4 ~deadline_s:deadline ~socket
      (K.make (prov ()))
  in
  let th = Thread.create (fun () -> Serve.Server.run server) () in
  let mgr = Serve.Server.manager server in
  let holder = qok (Session.open_ mgr) in
  let held = Atomic.make false and hold = Atomic.make true in
  Kaskade_obs.Qlog.set_sink
    (Some
       (fun r ->
         if r.Kaskade_obs.Qlog.session = Some (Session.id holder) then begin
           Atomic.set held true;
           let t0 = Unix.gettimeofday () in
           while Atomic.get hold && Unix.gettimeofday () -. t0 < 2.0 do Thread.delay 0.001 done
         end));
  let q = List.hd mvcc_queries in
  let slow = Thread.create (fun () -> ignore (Session.run holder (K.parse q))) () in
  while not (Atomic.get held) do Thread.delay 0.001 done;
  let runs = counter "executor.queries_run" in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let c = Serve.Client.connect socket in
  ignore (Serve.Client.request c "OPEN");
  let kvs, dt = timed (fun () -> Serve.Client.status (Serve.Client.request c ("Q " ^ q))) in
  check_string "socket request expires typed" "budget_exhausted" (List.assoc "label" kvs);
  check_bool "socket request expires within deadline + 100 ms" true (dt <= deadline +. 0.1);
  let waiter = qok (Session.open_ mgr) in
  let r, dt =
    timed (fun () -> Session.run ~budget:(Budget.create ~deadline_s:deadline ()) waiter (K.parse q))
  in
  (match r with
  | Error (K.Error.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "in-process queued request did not expire");
  check_bool "in-process request expires within deadline + 100 ms" true (dt <= deadline +. 0.1);
  check_int "no expired request executed" runs (counter "executor.queries_run");
  check_int "queue drained" 0 (Session.queue_depth mgr);
  Atomic.set hold false;
  Thread.join slow;
  Kaskade_obs.Qlog.set_sink None;
  Session.close waiter;
  Session.close holder;
  check_string "served after the slot frees" "ok"
    (List.assoc "_status" (Serve.Client.status (Serve.Client.request c ("Q " ^ q))));
  ignore (Serve.Client.request c "SHUTDOWN");
  Serve.Client.close c;
  Thread.join th

(* [run] joins its worker domains: 70 servers in a row would pass the
   runtime's 128-domain cap if any of them left its workers behind. *)
let test_server_joins_workers () =
  let ks = K.make (prov ()) in
  let q = List.hd mvcc_queries in
  for i = 1 to 70 do
    let socket =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "kaskade-test-join-%d.sock" (Unix.getpid ()))
    in
    let server = Serve.Server.create ~socket ks in
    let returned = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          Fun.protect ~finally:(fun () -> Atomic.set returned true) (fun () -> Serve.Server.run server))
        ()
    in
    let c = Serve.Client.connect socket in
    ignore (Serve.Client.request c "OPEN");
    check_string (Printf.sprintf "server %d answers" i) "ok"
      (List.assoc "_status" (Serve.Client.status (Serve.Client.request c ("Q " ^ q))));
    ignore (Serve.Client.request c "SHUTDOWN");
    Serve.Client.close c;
    Thread.join th;
    check_bool (Printf.sprintf "server %d returned" i) true (Atomic.get returned)
  done

(* Expansions are counted per traversal and added once: the
   [executor.expand_steps] delta of each query is the same on the main
   domain, on a spawned domain and through a server's workers, and
   equals the per-expansion count the executor kept before. *)
let test_expand_steps_batched () =
  let g = prov () in
  let queries =
    [ "MATCH (a:Job)-[r*1..3]->(b:Job) RETURN a, b";
      "MATCH (a:Job)-[r*2..3]->(b:Job) RETURN a, b";
      "MATCH (f:File)<-[r*1..2]-(a:Job) RETURN f, a" ]
  in
  let expected =
    [ (Executor.Distinct_endpoints, [ 555; 557; 314 ]); (Executor.All_trails, [ 1576; 1576; 638 ]) ]
  in
  let delta f =
    let before = counter "executor.expand_steps" in
    f ();
    counter "executor.expand_steps" - before
  in
  List.iter
    (fun (mode, expect) ->
      let local () =
        let ctx = Executor.create ~mode ~planner:true g in
        List.map (fun q -> delta (fun () -> ignore (Executor.run ctx (K.parse q)))) queries
      in
      let main = local () in
      let spawned = Domain.join (Domain.spawn local) in
      let socket =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "kaskade-test-steps-%d.sock" (Unix.getpid ()))
      in
      let server = Serve.Server.create ~mode ~socket (K.make g) in
      let th = Thread.create (fun () -> Serve.Server.run server) () in
      let c = Serve.Client.connect socket in
      ignore (Serve.Client.request c "OPEN");
      let served = List.map (fun q -> delta (fun () -> ignore (Serve.Client.request c ("Q " ^ q)))) queries in
      ignore (Serve.Client.request c "SHUTDOWN");
      Serve.Client.close c;
      Thread.join th;
      let ints = Alcotest.(list int) in
      Alcotest.check ints "per-expansion count" expect main;
      Alcotest.check ints "spawned domain" main spawned;
      Alcotest.check ints "through the server" main served)
    expected

let () =
  Alcotest.run "serve"
    [
      ( "overlay-pin",
        [ Alcotest.test_case "pin/unpin/pinned_versions" `Quick test_overlay_pin_unpin ] );
      ("errors", [ Alcotest.test_case "of_exn Unix_error/Overload" `Quick test_error_of_exn ]);
      ( "mvcc",
        [ Alcotest.test_case "pinned readers vs writer" `Slow test_mvcc_pinned_readers ] );
      ( "admission",
        [
          Alcotest.test_case "session cap sheds typed" `Quick test_session_cap_sheds;
          Alcotest.test_case "queue sheds under load" `Slow test_queue_sheds_under_load;
        ] );
      ( "wire",
        [
          Alcotest.test_case "parse_request" `Quick test_wire_parse_request;
          Alcotest.test_case "fields round-trip" `Quick test_wire_fields_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_wire_mutated_lines;
        ] );
      ( "server",
        [ Alcotest.test_case "socket round-trip" `Slow test_server_socket_roundtrip;
          Alcotest.test_case "trace + health + metrics end to end" `Slow
            test_server_trace_health_metrics;
          Alcotest.test_case "finished connections are reaped" `Slow test_server_reaps_handlers;
          Alcotest.test_case "request line is bounded" `Slow test_server_line_cap;
          Alcotest.test_case "bad literal releases its session" `Quick
            test_server_bad_literal_releases_session;
          Alcotest.test_case "worker exception answered ERR" `Quick
            test_server_worker_exception_answered ] );
      ( "drill",
        [ Alcotest.test_case "pinned readers, sheds, health" `Slow test_concurrency_health_drill;
          Alcotest.test_case "WAL logs every batch" `Quick test_wal_logs_every_batch ] );
      ( "workers",
        [ Alcotest.test_case "per-request trace ids" `Slow test_server_trace_per_request;
          Alcotest.test_case "queued deadline expires" `Slow test_queue_deadline_expires;
          Alcotest.test_case "run joins its workers" `Slow test_server_joins_workers;
          Alcotest.test_case "expand_steps batched" `Slow test_expand_steps_batched ] );
    ]
