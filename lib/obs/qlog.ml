type outcome = View_hit of string | Fallback | Failed of string

type op_row = {
  op : string;
  detail : string;
  est_rows : float option;
  actual_rows : int option;
  op_seconds : float option;
}

type record = {
  seq : int;
  query : string;
  query_hash : string;
  plan_fingerprint : string;
  outcome : outcome;
  rows : int;
  seconds : float;
  budget : string option;
  operators : op_row list;
  session : string option;
  queue_wait_s : float option;
  trace : string option;
}

(* FNV-1a over Int64 — OCaml's native int is 63-bit, so the 64-bit
   variant needs boxing to hash identically everywhere. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let hash_query q = fnv1a q

(* Plan shape only: op/detail per node, bracketed by depth. Actuals and
   estimates are deliberately left out so EXPLAIN and PROFILE of the
   same query fingerprint identically. *)
let fingerprint plan =
  let b = Buffer.create 128 in
  let rec go (n : Explain.node) =
    Buffer.add_string b n.op;
    if n.detail <> "" then begin
      Buffer.add_char b ' ';
      Buffer.add_string b n.detail
    end;
    Buffer.add_char b '[';
    List.iter go n.children;
    Buffer.add_char b ']'
  in
  List.iter go [ plan ];
  fnv1a (Buffer.contents b)

let ops_of_plan plan =
  List.rev
    (Explain.fold
       (fun acc (n : Explain.node) ->
         { op = n.op;
           detail = n.detail;
           est_rows = n.est_rows;
           actual_rows = n.actual_rows;
           op_seconds = n.time_s }
         :: acc)
       [] plan)

(* Ring state. One mutex guards everything: appends may come from
   worker domains (tests exercise this; see test_util) while the main
   domain truncates, and the lock makes each operation atomic — a
   record is wholly in or wholly gone, never torn. *)
let lock = Mutex.create ()
let buf = ref (Array.make 512 None)
let head = ref 0 (* next write slot *)
let len = ref 0
let appended = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let capacity () = locked (fun () -> Array.length !buf)
let length () = locked (fun () -> !len)
let total () = locked (fun () -> !appended)

let records_unlocked () =
  let cap = Array.length !buf in
  let out = ref [] in
  for i = !len - 1 downto 0 do
    (* newest has offset len-1 *)
    match !buf.((!head - !len + i + (2 * cap)) mod cap) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let records () = locked records_unlocked

let clear () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) None;
      head := 0;
      len := 0)

let set_capacity cap =
  let cap = max 1 cap in
  locked (fun () ->
      let keep = records_unlocked () in
      let keep = List.filteri (fun i _ -> i >= List.length keep - cap) keep in
      buf := Array.make cap None;
      head := 0;
      len := 0;
      List.iter
        (fun r ->
          !buf.(!head) <- Some r;
          head := (!head + 1) mod cap;
          len := min cap (!len + 1))
        keep)

let sink : (record -> unit) option ref = ref None
let set_sink s = sink := s
let notifier : (int * (string -> unit)) option ref = ref None

let set_notifier ?(every = 100) f =
  notifier := match f with None -> None | Some f -> Some (max 1 every, f)

(* Exact quantile over the window (small, so sorting is fine) —
   nearest-rank with the usual ceil convention. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let summary () =
  let window, total =
    locked (fun () -> (records_unlocked (), !appended))
  in
  let n = List.length window in
  let hits = ref 0 and falls = ref 0 and fails = ref 0 in
  List.iter
    (fun r ->
      match r.outcome with
      | View_hit _ -> incr hits
      | Fallback -> incr falls
      | Failed _ -> incr fails)
    window;
  let times = Array.of_list (List.map (fun r -> r.seconds) window) in
  Array.sort compare times;
  let ms q = exact_quantile times q *. 1000.0 in
  if n = 0 then Printf.sprintf "qlog: %d logged, window empty" total
  else
    Printf.sprintf
      "qlog: %d logged (window %d) | view-hit %d fallback %d failed %d | p50 %.2fms p95 %.2fms \
       p99 %.2fms"
      total n !hits !falls !fails (ms 0.5) (ms 0.95) (ms 0.99)

(* Slow-query accounting lives at the append choke point so every
   entry path — facade, serving layer, replayed records — is counted
   by one rule. The threshold is process-global, like the ring. *)
let slow_counter =
  Metrics.counter ~help:"Qlog appends at or above the slow-query threshold" "kaskade.slow_queries"

let slow_threshold = ref 1.0
let set_slow_threshold s = slow_threshold := Stdlib.max 0.0 s

let append r =
  let stored, notify =
    locked (fun () ->
        incr appended;
        let stored = { r with seq = !appended } in
        let cap = Array.length !buf in
        !buf.(!head) <- Some stored;
        head := (!head + 1) mod cap;
        len := min cap (!len + 1);
        let notify =
          match !notifier with Some (every, _) when !appended mod every = 0 -> true | _ -> false
        in
        (stored, notify))
  in
  (* Hooks run outside the lock: a slow sink must not serialize worker
     domains, and a hook that reads the log must not deadlock. *)
  (match !sink with Some f -> f stored | None -> ());
  if notify then (match !notifier with Some (_, f) -> f (summary ()) | None -> ());
  if stored.seconds >= !slow_threshold then Metrics.incr slow_counter;
  stored

let add ?budget ?plan ?session ?queue_wait_s ?trace ~query ~outcome ~rows ~seconds () =
  let plan_fingerprint, operators =
    match plan with None -> ("", []) | Some p -> (fingerprint p, ops_of_plan p)
  in
  (* Default the trace id from the ambient request context, so the
     facade does not have to thread it explicitly. *)
  let trace = match trace with Some _ as t -> t | None -> Tracectx.current () in
  append
    { seq = 0;
      query;
      query_hash = hash_query query;
      plan_fingerprint;
      outcome;
      rows;
      seconds;
      budget;
      operators;
      session;
      queue_wait_s;
      trace }

(* ---- JSON ---- *)

let opt f = function None -> Report.Null | Some v -> f v

let op_row_to_json (o : op_row) =
  Report.Obj
    [ ("op", Report.Str o.op);
      ("detail", Report.Str o.detail);
      ("est_rows", opt (fun f -> Report.Float f) o.est_rows);
      ("actual_rows", opt (fun i -> Report.Int i) o.actual_rows);
      ("seconds", opt (fun f -> Report.Float f) o.op_seconds) ]

let record_to_json (r : record) =
  let outcome_fields =
    match r.outcome with
    | View_hit v -> [ ("outcome", Report.Str "view_hit"); ("view", Report.Str v) ]
    | Fallback -> [ ("outcome", Report.Str "fallback") ]
    | Failed l -> [ ("outcome", Report.Str "failed"); ("error", Report.Str l) ]
  in
  Report.Obj
    ([ ("seq", Report.Int r.seq);
       ("query", Report.Str r.query);
       ("query_hash", Report.Str r.query_hash);
       ("plan_fingerprint", Report.Str r.plan_fingerprint) ]
    @ outcome_fields
    @ [ ("rows", Report.Int r.rows);
        ("seconds", Report.Float r.seconds);
        ("budget", opt (fun s -> Report.Str s) r.budget);
        ("session", opt (fun s -> Report.Str s) r.session);
        ("queue_wait_s", opt (fun f -> Report.Float f) r.queue_wait_s);
        ("trace", opt (fun s -> Report.Str s) r.trace);
        ("operators", Report.List (List.map op_row_to_json r.operators)) ])

let str_field k j = match Report.member k j with Some (Report.Str s) -> Some s | _ -> None

let int_field k j =
  match Report.member k j with
  | Some (Report.Int i) -> Some i
  | Some (Report.Float f) -> Some (int_of_float f)
  | _ -> None

let float_field k j =
  match Report.member k j with
  | Some (Report.Float f) -> Some f
  | Some (Report.Int i) -> Some (float_of_int i)
  | _ -> None

let op_row_of_json j =
  match str_field "op" j with
  | None -> Error "operator row missing \"op\""
  | Some op ->
    Ok
      { op;
        detail = Option.value ~default:"" (str_field "detail" j);
        est_rows = float_field "est_rows" j;
        actual_rows = int_field "actual_rows" j;
        op_seconds = float_field "seconds" j }

let record_of_json j =
  let ( let* ) = Result.bind in
  let require k = function Some v -> Ok v | None -> Error ("missing field \"" ^ k ^ "\"") in
  let* query = require "query" (str_field "query" j) in
  let* outcome =
    match str_field "outcome" j with
    | Some "view_hit" ->
      let* v = require "view" (str_field "view" j) in
      Ok (View_hit v)
    | Some "fallback" -> Ok Fallback
    | Some "failed" -> Ok (Failed (Option.value ~default:"error" (str_field "error" j)))
    | Some other -> Error ("unknown outcome " ^ other)
    | None -> Error "missing field \"outcome\""
  in
  let* operators =
    match Report.member "operators" j with
    | Some (Report.List l) ->
      List.fold_left
        (fun acc o ->
          let* acc = acc in
          let* row = op_row_of_json o in
          Ok (row :: acc))
        (Ok []) l
      |> Result.map List.rev
    | _ -> Ok []
  in
  Ok
    { seq = Option.value ~default:0 (int_field "seq" j);
      query;
      query_hash = Option.value ~default:(hash_query query) (str_field "query_hash" j);
      plan_fingerprint = Option.value ~default:"" (str_field "plan_fingerprint" j);
      outcome;
      rows = Option.value ~default:0 (int_field "rows" j);
      seconds = Option.value ~default:0.0 (float_field "seconds" j);
      budget = str_field "budget" j;
      operators;
      session = str_field "session" j;
      queue_wait_s = float_field "queue_wait_s" j;
      trace = str_field "trace" j }

let to_jsonl () =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b (Report.to_string ~pretty:false (record_to_json r));
      Buffer.add_char b '\n')
    (records ());
  Buffer.contents b

let save path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_jsonl ()))

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line when String.trim line = "" -> go (lineno + 1) acc
          | line -> (
            match Report.parse line with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
            | Ok j -> (
              match record_of_json j with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
              | Ok r -> go (lineno + 1) (r :: acc)))
        in
        go 1 [])
