(* Observability layer: spans, metrics, EXPLAIN/PROFILE, query log,
   trace export, advisor. *)

open Kaskade_graph
open Kaskade_query
module Obs = Kaskade_obs
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Explain = Obs.Explain
module Qlog = Obs.Qlog
module Report = Obs.Report
module Executor = Kaskade_exec.Executor
module Planner = Kaskade_exec.Planner
module Row = Kaskade_exec.Row
module Pool = Kaskade_util.Pool

(* All tests drive the facade through [Kaskade.make] + [Kaskade.query]. *)
let qok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected facade error: %s" (Kaskade.Error.to_string e)

let krun ks q = qok (Kaskade.query ks q)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let prov = lazy Kaskade_gen.Provenance_gen.(generate { default with jobs = 60; files = 120; seed = 7 })

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)

let test_span_nesting () =
  let v, spans =
    Trace.collect (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner1" (fun () ->
                ignore (Sys.opaque_identity (List.init 1000 (fun i -> i * i))));
            Trace.with_span "inner2" ~attrs:[ ("k", "v") ] (fun () -> ());
            7))
  in
  check_int "thunk result" 7 v;
  check_int "one root span" 1 (List.length spans);
  let outer = List.hd spans in
  check_string "root name" "outer" outer.Trace.name;
  check_int "two children" 2 (List.length outer.Trace.children);
  let inner1 = List.nth outer.Trace.children 0 in
  let inner2 = List.nth outer.Trace.children 1 in
  check_string "children in start order" "inner1" inner1.Trace.name;
  check_string "second child" "inner2" inner2.Trace.name;
  check_bool "attr recorded" true (List.mem_assoc "k" inner2.Trace.attrs)

let test_span_timing_monotone () =
  let (), spans =
    Trace.collect (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner1" (fun () ->
                ignore (Sys.opaque_identity (List.init 5000 (fun i -> i * i))));
            Trace.with_span "inner2" (fun () -> ())))
  in
  let outer = List.hd spans in
  let inner1 = List.nth outer.Trace.children 0 in
  let inner2 = List.nth outer.Trace.children 1 in
  let eps = 1e-9 in
  check_bool "outer duration non-negative" true (outer.Trace.duration_s >= 0.0);
  check_bool "children start inside parent" true
    (inner1.Trace.start_s >= outer.Trace.start_s -. eps);
  check_bool "second child starts after first ends" true
    (inner2.Trace.start_s >= inner1.Trace.start_s +. inner1.Trace.duration_s -. eps);
  check_bool "children fit inside parent" true
    (inner2.Trace.start_s +. inner2.Trace.duration_s
    <= outer.Trace.start_s +. outer.Trace.duration_s +. eps);
  check_bool "parent covers child sum" true
    (outer.Trace.duration_s +. eps >= inner1.Trace.duration_s +. inner2.Trace.duration_s)

let test_span_disabled_and_exceptions () =
  (* Off by default: with_span is a passthrough. *)
  check_bool "disabled outside collect" false (Trace.enabled ());
  check_int "passthrough result" 3 (Trace.with_span "ignored" (fun () -> 3));
  (* A raising thunk still switches collection off. *)
  let raised =
    try
      ignore (Trace.collect (fun () -> Trace.with_span "boom" (fun () -> failwith "x")));
      false
    with Failure _ -> true
  in
  check_bool "exception propagates" true raised;
  check_bool "collection off after raise" false (Trace.enabled ())

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_accounting () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  check_int "incr accumulates" 42 (Metrics.counter_value c);
  (* Same name -> same instrument. *)
  Metrics.incr (Metrics.counter "test.counter");
  check_int "register-or-fetch shares state" 43 (Metrics.counter_value c);
  Metrics.reset ();
  check_int "reset zeroes" 0 (Metrics.counter_value c)

let test_histogram_accounting () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  let obs = [ 0.001; 0.5; 3.0; 1024.0 ] in
  List.iter (Metrics.observe h) obs;
  check_int "count" (List.length obs) (Metrics.histogram_count h);
  Alcotest.(check (float 1e-6)) "sum" (List.fold_left ( +. ) 0.0 obs) (Metrics.histogram_sum h);
  let dump = Obs.Report.to_string (Metrics.to_json ()) in
  check_bool "dump names the histogram" true (string_contains dump "test.hist");
  check_bool "dump has buckets" true (string_contains dump "buckets")

let test_engine_counters_move () =
  Metrics.reset ();
  let g = Lazy.force prov in
  let ctx = Executor.create g in
  ignore (Executor.run_string ctx "MATCH (a:Job)-[r*1..3]->(b:Job) RETURN a, b");
  let v name = Metrics.counter_value (Metrics.counter name) in
  check_bool "queries_run counted" true (v "executor.queries_run" >= 1);
  check_bool "rows_produced counted" true (v "executor.rows_produced" > 0);
  check_bool "expand_steps counted" true (v "executor.expand_steps" > 0)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

let scan_ops = [ "NodeByLabelScan"; "AllNodesScan"; "NodeIndexSeek"; "Argument" ]

let test_explain_matches_planner_anchor () =
  let g = Lazy.force prov in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  (* Written head-first at the unselective side: Files outnumber Jobs,
     so the planner should anchor at (j:Job). *)
  let q = Qparser.parse "MATCH (f:File)-[:IS_READ_BY]->(j:Job) RETURN f, j" in
  let pattern =
    match q with Ast.Match_only mb -> List.hd mb.Ast.patterns | _ -> assert false
  in
  let anchor = Planner.anchor_position stats schema ~bound:(fun _ -> false) pattern in
  let nodes = pattern.Ast.p_start :: List.map snd pattern.Ast.p_steps in
  let anchor_var = Option.get (List.nth nodes anchor).Ast.n_var in
  let ctx = Executor.create ~planner:true g in
  let plan = Executor.explain ctx q in
  let scan = Explain.find (fun n -> List.mem n.Explain.op scan_ops) plan in
  match scan with
  | None -> Alcotest.fail "no scan operator in EXPLAIN output"
  | Some scan ->
    check_bool
      (Printf.sprintf "first scan (%s) starts at planner anchor %s" scan.Explain.detail anchor_var)
      true
      (string_contains scan.Explain.detail ("(" ^ anchor_var))

let test_explain_has_estimates_no_actuals () =
  let g = Lazy.force prov in
  let ctx = Executor.create ~planner:true g in
  let q = Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  let plan = Executor.explain ctx q in
  check_bool "not profiled" false (Explain.profiled plan);
  check_bool "root has estimate" true (plan.Explain.est_rows <> None);
  let rendered = Explain.render plan in
  check_bool "renders est.rows column" true (string_contains rendered "est.rows");
  check_bool "no actuals column on EXPLAIN" false (string_contains rendered "time")

(* ------------------------------------------------------------------ *)
(* PROFILE                                                             *)

let table_equal (a : Row.table) (b : Row.table) =
  a.Row.cols = b.Row.cols
  && List.length a.Row.rows = List.length b.Row.rows
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Row.rval_equal ra rb)
       a.Row.rows b.Row.rows

let profile_queries =
  [ "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
    "MATCH (a:Job)-[r*1..3]->(b:Job) RETURN a, b";
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 10 RETURN j, f";
    "SELECT j.pipelineName, COUNT(*) FROM (MATCH (j:Job) RETURN j) GROUP BY j.pipelineName";
    "SELECT DISTINCT j.pipelineName FROM (MATCH (j:Job) RETURN j) ORDER BY j.pipelineName LIMIT 3"
  ]

let test_profile_identical_results () =
  let g = Lazy.force prov in
  let ctx = Executor.create ~planner:true g in
  List.iter
    (fun src ->
      let q = Qparser.parse src in
      let plain = Executor.table_exn (Executor.run ctx q) in
      let profiled_result, plan = Executor.run_explained ~profile:true ctx q in
      let profiled = Executor.table_exn profiled_result in
      check_bool ("identical result: " ^ src) true (table_equal plain profiled);
      check_bool ("plan carries actuals: " ^ src) true (Explain.profiled plan);
      check_int ("root actual = result rows: " ^ src)
        (Row.n_rows plain)
        (Option.value plan.Explain.actual_rows ~default:(-1));
      check_bool ("root has wall time: " ^ src) true (plan.Explain.time_s <> None))
    profile_queries

(* Every SELECT stage is timed, and times are inclusive: no operator
   reports less than its children together. *)
let test_profile_select_stages_timed () =
  let g = Lazy.force prov in
  let ctx = Executor.create ~planner:true g in
  List.iter
    (fun (src, ops) ->
      let _, plan = Executor.run_explained ~profile:true ctx (Qparser.parse src) in
      List.iter
        (fun op ->
          match Explain.find (fun n -> n.Explain.op = op) plan with
          | Some n -> check_bool (op ^ " carries a time: " ^ src) true (n.Explain.time_s <> None)
          | None -> Alcotest.failf "no %s operator in the plan of %s" op src)
        ops;
      Explain.iter
        (fun n ->
          let time n = Option.value n.Explain.time_s ~default:0.0 in
          let children = List.fold_left (fun acc c -> acc +. time c) 0.0 n.Explain.children in
          if time n +. 1e-9 < children then
            Alcotest.failf "%s reports %.6fs, below its children's %.6fs" n.Explain.op (time n)
              children)
        plan)
    [ ( "SELECT DISTINCT s, MAX(r) AS m FROM (MATCH (s:Job)-[r*1..3]->(n) WHERE s.CPU > 10 RETURN s, n, r) \
         WHERE r > 1 GROUP BY s, n ORDER BY s LIMIT 3",
        [ "Limit"; "Sort"; "Distinct"; "Aggregate"; "Filter"; "Match" ] );
      ("SELECT s.name FROM (MATCH (s:Job) RETURN s) WHERE s.CPU > 100", [ "Project"; "Filter" ]) ]

let test_kaskade_profile_identity () =
  let g = Lazy.force prov in
  let ks = Kaskade.make g in
  let q = Kaskade.parse "MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a, b" in
  let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:(10 * Graph.n_edges g) in
  ignore (Kaskade.materialize_selected ks sel);
  let r1, how1 = krun ks q in
  let r2, report = Kaskade.profile ks q in
  check_bool "same rewrite decision" true (how1 = report.Kaskade.target);
  check_bool "profile result identical to run" true
    (table_equal (Executor.table_exn r1) (Executor.table_exn r2));
  check_bool "plan profiled" true (Explain.profiled report.Kaskade.plan);
  check_bool "candidate views listed" true (report.Kaskade.candidates <> []);
  check_bool "selection trace attached" true (report.Kaskade.selection <> None);
  (* EXPLAIN of the same query agrees with PROFILE on plan shape. *)
  let e = Kaskade.explain ks q in
  let shape n = Explain.fold (fun acc m -> (m.Explain.op ^ "/" ^ m.Explain.detail) :: acc) [] n in
  check_bool "EXPLAIN and PROFILE agree on shape" true
    (shape e.Kaskade.plan = shape report.Kaskade.plan)

(* ------------------------------------------------------------------ *)
(* Query log                                                           *)

let test_qlog_ring_wraparound () =
  Qlog.clear ();
  Qlog.set_capacity 4;
  let total0 = Qlog.total () in
  for i = 1 to 10 do
    ignore
      (Qlog.add
         ~query:(Printf.sprintf "MATCH (q%d:Job) RETURN q%d" i i)
         ~outcome:Qlog.Fallback ~rows:i ~seconds:(float_of_int i *. 0.001) ())
  done;
  check_int "length capped at capacity" 4 (Qlog.length ());
  check_int "total survives eviction" (total0 + 10) (Qlog.total ());
  let rs = Qlog.records () in
  Alcotest.(check (list int)) "window keeps the newest, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun r -> r.Qlog.rows) rs);
  let seqs = List.map (fun r -> r.Qlog.seq) rs in
  check_bool "seqs strictly increasing" true
    (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
  (* Growing the ring keeps the held window. *)
  Qlog.set_capacity 8;
  check_int "grow keeps records" 4 (Qlog.length ());
  ignore (Qlog.add ~query:"MATCH (x) RETURN x" ~outcome:Qlog.Fallback ~rows:11 ~seconds:0.0 ());
  check_int "appends continue after resize" 5 (Qlog.length ());
  (* Shrinking keeps only the most recent. *)
  Qlog.set_capacity 2;
  Alcotest.(check (list int)) "shrink keeps newest" [ 10; 11 ]
    (List.map (fun r -> r.Qlog.rows) (Qlog.records ()));
  Qlog.set_capacity 512;
  Qlog.clear ()

let test_qlog_jsonl_roundtrip () =
  let g = Lazy.force prov in
  let ctx = Executor.create ~planner:true g in
  let q = Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  let _, plan = Executor.run_explained ~profile:true ctx q in
  Qlog.clear ();
  Qlog.set_capacity 512;
  let r1 =
    Qlog.add ~budget:"steps 10/1000" ~plan
      ~query:"MATCH (j:Job) WHERE j.name = \"quo\\\"ted\n\ttab\" RETURN j"
      ~outcome:(Qlog.View_hit "KEEP_V_FILE_JOB") ~rows:7 ~seconds:0.0042 ()
  in
  let r2 =
    Qlog.add ~query:"MATCH (x) RETURN x" ~outcome:(Qlog.Failed "budget_exhausted") ~rows:0
      ~seconds:0.1 ()
  in
  let path = Filename.temp_file "kaskade_qlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Qlog.save path;
      match Qlog.load path with
      | Error e -> Alcotest.fail ("load failed: " ^ e)
      | Ok rs ->
        check_int "two records round-trip" 2 (List.length rs);
        let l1 = List.nth rs 0 and l2 = List.nth rs 1 in
        check_string "query text survives escaping" r1.Qlog.query l1.Qlog.query;
        check_string "hash stable across round-trip" r1.Qlog.query_hash l1.Qlog.query_hash;
        check_string "fingerprint survives" r1.Qlog.plan_fingerprint l1.Qlog.plan_fingerprint;
        check_bool "fingerprint non-empty" true (r1.Qlog.plan_fingerprint <> "");
        check_bool "view-hit outcome" true (l1.Qlog.outcome = Qlog.View_hit "KEEP_V_FILE_JOB");
        check_int "rows" 7 l1.Qlog.rows;
        check_bool "budget survives" true (l1.Qlog.budget = Some "steps 10/1000");
        check_int "operator rows flattened" (List.length r1.Qlog.operators)
          (List.length l1.Qlog.operators);
        check_bool "operators non-empty (plan given)" true (r1.Qlog.operators <> []);
        check_bool "operator ops/actuals survive" true
          (List.for_all2
             (fun (a : Qlog.op_row) (b : Qlog.op_row) ->
               a.Qlog.op = b.Qlog.op && a.Qlog.detail = b.Qlog.detail
               && a.Qlog.actual_rows = b.Qlog.actual_rows)
             r1.Qlog.operators l1.Qlog.operators);
        check_bool "failure outcome survives" true
          (l2.Qlog.outcome = Qlog.Failed "budget_exhausted");
        (* hash_query really is content-addressed. *)
        check_string "hash_query deterministic" (Qlog.hash_query r1.Qlog.query) r1.Qlog.query_hash;
        check_bool "distinct queries hash differently" true
          (r1.Qlog.query_hash <> r2.Qlog.query_hash));
  Qlog.clear ()

let test_qlog_facade_appends () =
  let g = Lazy.force prov in
  let ks = Kaskade.make g in
  Qlog.clear ();
  let q = Kaskade.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  let r, how = krun ks q in
  check_bool "no views yet -> raw" true (how = Kaskade.Raw);
  (match Qlog.records () with
  | [ rec1 ] ->
    check_bool "fallback logged" true (rec1.Qlog.outcome = Qlog.Fallback);
    check_int "rows logged" (Row.n_rows (Executor.table_exn r)) rec1.Qlog.rows;
    check_bool "fingerprint captured" true (rec1.Qlog.plan_fingerprint <> "");
    check_bool "canonical text re-parses" true
      (match Kaskade.parse_result rec1.Qlog.query with Ok _ -> true | Error _ -> false)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 logged record, got %d" (List.length rs)));
  (* Failures land in the log too (typed, via [query]). *)
  let before = Qlog.length () in
  (match
     Kaskade.query ~budget:(Kaskade_util.Budget.create ~max_steps:1 ()) ks
       (Kaskade.parse "MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a, b")
   with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error e -> check_string "typed failure" "budget_exhausted" (Kaskade.Error.label e));
  check_int "failure appended" (before + 1) (Qlog.length ());
  let last = List.nth (Qlog.records ()) (Qlog.length () - 1) in
  check_bool "failure outcome recorded" true
    (last.Qlog.outcome = Qlog.Failed "budget_exhausted");
  Qlog.clear ()

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let test_chrome_trace_valid_json () =
  (* Oversubscription forces a real worker domain even on a one-core
     box; the morsel holding [0, grain) spins until that worker has
     claimed a morsel of its own, so worker spans are guaranteed to
     land in the trace (stealing otherwise lets a fast caller drain
     every morsel before the spawned domain gets started). *)
  let pool = Pool.create ~domains:2 ~oversubscribe:true () in
  let domains_seen = Atomic.make [] in
  let note_domain () =
    let me = Domain.self () in
    let rec go () =
      let l = Atomic.get domains_seen in
      if (not (List.mem me l)) && not (Atomic.compare_and_set domains_seen l (me :: l)) then
        go ()
    in
    go ()
  in
  let (), spans =
    Trace.collect (fun () ->
        Trace.with_span "fanout" (fun () ->
            ignore
              (Pool.map_morsels pool ~grain:256 ~n:4096 (fun ~lo ~hi ->
                   note_domain ();
                   if lo = 0 then
                     while List.length (Atomic.get domains_seen) < 2 do
                       Domain.cpu_relax ()
                     done;
                   let acc = ref 0 in
                   for i = lo to hi - 1 do
                     acc := !acc + i
                   done;
                   !acc))))
  in
  check_bool "captured a root span" true (spans <> []);
  let s = Obs.Trace_export.to_chrome_string spans in
  match Report.parse s with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok j ->
    let events =
      match Report.member "traceEvents" j with
      | Some (Report.List l) -> l
      | _ -> Alcotest.fail "no traceEvents array"
    in
    let xs = List.filter (fun e -> Report.member "ph" e = Some (Report.Str "X")) events in
    check_bool "has complete (X) events" true (List.length xs >= 2);
    List.iter
      (fun e ->
        List.iter
          (fun field ->
            check_bool ("X event carries " ^ field) true (Report.member field e <> None))
          [ "name"; "ts"; "dur"; "pid"; "tid" ];
        match Report.member "dur" e with
        | Some (Report.Int d) -> check_bool "dur non-negative" true (d >= 0)
        | Some (Report.Float d) -> check_bool "dur non-negative" true (d >= 0.0)
        | _ -> Alcotest.fail "dur is not a number")
      xs;
    let tids =
      List.filter_map
        (fun e -> match Report.member "tid" e with Some (Report.Int t) -> Some t | _ -> None)
        xs
    in
    check_bool "main thread events present" true (List.mem 1 tids);
    check_bool "pool morsels land on worker tids" true (List.exists (fun t -> t > 1) tids);
    (* Every tid in use gets a thread_name metadata event. *)
    let named_tids =
      List.filter_map
        (fun e ->
          if Report.member "name" e = Some (Report.Str "thread_name") then
            match Report.member "tid" e with Some (Report.Int t) -> Some t | _ -> None
          else None)
        events
    in
    List.iter
      (fun t -> check_bool (Printf.sprintf "tid %d is named" t) true (List.mem t named_tids))
      (List.sort_uniq compare tids)

let rec flatten_spans (s : Trace.span) = s :: List.concat_map flatten_spans s.Trace.children

let test_chrome_trace_morsel_spans () =
  (* Morsel fan-outs label each span with the morsel's index and half-
     open range — not a chunk index. Oversubscription forces real
     worker domains (the observer only reports parallel runs), and the
     exporter keys worker tids off the same "domain" attr as chunks. *)
  let pool = Pool.create ~domains:2 ~oversubscribe:true () in
  let (), spans =
    Trace.collect (fun () ->
        Trace.with_span "fanout" (fun () ->
            ignore
              (Pool.map_morsels pool ~grain:1024 ~n:4096 (fun ~lo ~hi ->
                   let acc = ref 0 in
                   for i = lo to hi - 1 do
                     acc := !acc + i
                   done;
                   !acc))))
  in
  let morsels =
    List.filter (fun s -> s.Trace.name = "pool.morsel") (List.concat_map flatten_spans spans)
  in
  check_int "one span per morsel" 4 (List.length morsels);
  let ranges =
    List.sort compare (List.filter_map (fun s -> List.assoc_opt "range" s.Trace.attrs) morsels)
  in
  Alcotest.(check (list string))
    "spans carry morsel ranges"
    [ "[0,1024)"; "[1024,2048)"; "[2048,3072)"; "[3072,4096)" ]
    ranges;
  List.iter
    (fun s ->
      check_bool "morsel i/m attr" true
        (match List.assoc_opt "morsel" s.Trace.attrs with
        | Some v -> String.contains v '/'
        | None -> false);
      check_bool "domain attr" true (List.assoc_opt "domain" s.Trace.attrs <> None))
    morsels;
  match Report.parse (Obs.Trace_export.to_chrome_string spans) with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok j -> begin
    match Report.member "traceEvents" j with
    | Some (Report.List events) ->
      check_int "morsel events exported" 4
        (List.length
           (List.filter
              (fun e -> Report.member "name" e = Some (Report.Str "pool.morsel"))
              events))
    | _ -> Alcotest.fail "no traceEvents array"
  end

(* ------------------------------------------------------------------ *)
(* Quantiles + multicore histogram path                                *)

let test_quantiles_vs_reference () =
  Metrics.reset ();
  let h = Metrics.histogram "test.quantiles" in
  (* Deterministic LCG over a wide, skewed range. *)
  let state = ref 123456789 in
  let next () =
    state := (1103515245 * !state + 12345) land 0x3FFFFFFF;
    (float_of_int (!state mod 100_000) /. 97.0) +. 0.001
  in
  let n = 500 in
  let values = Array.init n (fun _ -> next ()) in
  Array.iter (Metrics.observe h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let exact q =
    (* Nearest-rank on the sorted copy. *)
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  in
  List.iter
    (fun q ->
      let est = Metrics.quantile h q in
      let ex = exact q in
      check_bool
        (Printf.sprintf "q=%.2f within a bucket of exact (est %.3f, exact %.3f)" q est ex)
        true
        (est >= ex /. 2.001 && est <= ex *. 2.001))
    [ 0.5; 0.9; 0.95; 0.99 ];
  let p50 = Metrics.quantile h 0.5
  and p95 = Metrics.quantile h 0.95
  and p99 = Metrics.quantile h 0.99 in
  check_bool "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  check_bool "clamped to observed range" true
    (p50 >= Metrics.histogram_min h && p99 <= Metrics.histogram_max h);
  Alcotest.(check (float 1e-9)) "min exact" sorted.(0) (Metrics.histogram_min h);
  Alcotest.(check (float 1e-9)) "max exact" sorted.(n - 1) (Metrics.histogram_max h);
  check_bool "empty histogram -> nan" true
    (Float.is_nan (Metrics.quantile (Metrics.histogram "test.quantiles.empty") 0.5));
  Metrics.reset ()

let test_histogram_worker_observations () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist.workers" in
  let pool = Pool.create ~domains:4 ~oversubscribe:true () in
  let n = 1000 in
  ignore
    (Pool.map_morsels pool ~grain:250 ~n (fun ~lo ~hi ->
         for i = lo to hi - 1 do
           Metrics.observe h (float_of_int (i + 1))
         done));
  (* Some morsels run on the caller (plain path), the stolen ones on
     workers (atomic side cells) — the merged view must be exact. *)
  check_int "merged count exact" n (Metrics.histogram_count h);
  Alcotest.(check (float 1e-6)) "merged sum exact"
    (float_of_int (n * (n + 1) / 2))
    (Metrics.histogram_sum h);
  Alcotest.(check (float 1e-9)) "merged min" 1.0 (Metrics.histogram_min h);
  Alcotest.(check (float 1e-9)) "merged max" (float_of_int n) (Metrics.histogram_max h);
  check_bool "quantile readable after merge" true (not (Float.is_nan (Metrics.quantile h 0.5)));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)

(* Acceptance criterion: advising over a captured fig7-style workload
   must recommend the same view set as static enumeration + selection
   over the same queries and frequencies. *)
let advisor_workload =
  [ ("MATCH (s:Job)-[r*1..4]->(desc:Job) RETURN s, desc", 3);
    ("MATCH (s:Job)<-[r*1..4]-(anc:Job) RETURN s, anc", 2);
    ("SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n", 1)
  ]

let chosen_names (sel : Kaskade.Selection.t) =
  List.sort compare (List.map Kaskade_views.View.name sel.Kaskade.Selection.chosen)

let test_advisor_matches_static_selection () =
  let g = Lazy.force prov in
  let ks = Kaskade.make g in
  let budget = 10 * Graph.n_edges g in
  Qlog.clear ();
  List.iter
    (fun (src, freq) ->
      let q = Kaskade.parse src in
      for _ = 1 to freq do
        ignore (krun ks q)
      done)
    advisor_workload;
  check_int "every run logged" 6 (Qlog.length ());
  let advice = Kaskade.Advisor.advise ~budget_edges:budget ks in
  check_int "all records replayed" 6 advice.Kaskade.Advisor.replayed;
  check_int "nothing skipped" 0 advice.Kaskade.Advisor.skipped;
  (* The advisor's workload grouping recovers the true frequencies. *)
  Alcotest.(check (list int)) "frequencies recovered, most frequent first" [ 3; 2; 1 ]
    (List.map snd advice.Kaskade.Advisor.workload);
  (* Static path: same queries, same frequencies as weights. *)
  let static =
    Kaskade.Selection.select (Kaskade.stats ks) (Kaskade.schema ks)
      ~query_weights:(List.map (fun (_, f) -> float_of_int f) advisor_workload)
      ~queries:(List.map (fun (src, _) -> Kaskade.parse src) advisor_workload)
      ~budget_edges:budget
  in
  check_bool "static selection chooses something" true (static.Kaskade.Selection.chosen <> []);
  Alcotest.(check (list string)) "advisor selection == static selection" (chosen_names static)
    (chosen_names advice.Kaskade.Advisor.selection);
  (* Empty catalog: every chosen view is an Add, and none has log hits. *)
  List.iter
    (fun (r : Kaskade.Advisor.recommendation) ->
      check_bool ("verdict is Add: " ^ r.Kaskade.Advisor.rec_view) true
        (r.Kaskade.Advisor.rec_verdict = Kaskade.Advisor.Add))
    advice.Kaskade.Advisor.recommendations;
  check_int "recommendation per chosen view"
    (List.length static.Kaskade.Selection.chosen)
    (List.length advice.Kaskade.Advisor.recommendations);
  Qlog.clear ()

let test_advisor_keep_after_materialization () =
  let g = Lazy.force prov in
  let ks = Kaskade.make g in
  let budget = 10 * Graph.n_edges g in
  let queries = List.map (fun (src, _) -> Kaskade.parse src) advisor_workload in
  let sel = Kaskade.select_views ks ~queries ~budget_edges:budget in
  ignore (Kaskade.materialize_selected ks sel);
  Qlog.clear ();
  List.iter (fun q -> ignore (krun ks q)) queries;
  (* At least one query must now route through a view and be logged so. *)
  let hits =
    List.filter (fun r -> match r.Qlog.outcome with Qlog.View_hit _ -> true | _ -> false)
      (Qlog.records ())
  in
  check_bool "view hits logged" true (hits <> []);
  let advice = Kaskade.Advisor.advise ~budget_edges:budget ks in
  (* The same workload still selects the same views, so the verdicts
     flip from Add to Keep — and the hit counts are observed. *)
  List.iter
    (fun (r : Kaskade.Advisor.recommendation) ->
      if List.mem r.Kaskade.Advisor.rec_view (chosen_names sel) then begin
        check_bool ("materialized view kept: " ^ r.Kaskade.Advisor.rec_view) true
          (r.Kaskade.Advisor.rec_verdict = Kaskade.Advisor.Keep);
        check_bool ("observed hits counted: " ^ r.Kaskade.Advisor.rec_view) true
          (r.Kaskade.Advisor.rec_hits > 0
          || not
               (List.exists
                  (fun h ->
                    h.Qlog.outcome = Qlog.View_hit r.Kaskade.Advisor.rec_view)
                  hits))
      end)
    advice.Kaskade.Advisor.recommendations;
  (* Calibration rows exist for the replayed targets and carry sane ratios. *)
  List.iter
    (fun (c : Kaskade.Advisor.calibration) ->
      check_bool "calibration over logged runs" true (c.Kaskade.Advisor.cal_queries > 0);
      check_bool "ratio finite and positive" true
        (Float.is_finite c.Kaskade.Advisor.cal_ratio && c.Kaskade.Advisor.cal_ratio > 0.0))
    advice.Kaskade.Advisor.calibration;
  Qlog.clear ()

(* ------------------------------------------------------------------ *)
(* Trace contexts: minting, scoping, span + qlog stamping              *)

module Tracectx = Obs.Tracectx
module Health = Obs.Health
module Timeseries = Obs.Timeseries

let test_tracectx_mint () =
  let a = Tracectx.mint () and b = Tracectx.mint () in
  check_bool "minted id is valid" true (Tracectx.is_valid a);
  check_bool "second minted id is valid" true (Tracectx.is_valid b);
  check_bool "consecutive mints differ" true (a <> b);
  check_bool "session-salted mint is valid" true (Tracectx.is_valid (Tracectx.mint ~session:"s7" ()));
  List.iter
    (fun bad -> check_bool (Printf.sprintf "rejects %S" bad) false (Tracectx.is_valid bad))
    [ ""; "xyz"; "00deadbeef123ab"; "00deadbeef123abcd"; "00DEADBEEF123ABC"; "00deadbeef123ab-" ]

let test_tracectx_scoping () =
  let a = String.make 16 'a' and b = String.make 16 'b' in
  check_bool "no ambient ctx at rest" true (Tracectx.current () = None);
  Tracectx.with_ctx a (fun () ->
      check_bool "ctx visible inside" true (Tracectx.current () = Some a);
      Tracectx.with_ctx b (fun () ->
          check_bool "inner ctx shadows" true (Tracectx.current () = Some b));
      check_bool "outer ctx restored" true (Tracectx.current () = Some a));
  check_bool "ctx cleared after scope" true (Tracectx.current () = None);
  (try Tracectx.with_ctx a (fun () -> raise Exit) with Exit -> ());
  check_bool "ctx restored after raise" true (Tracectx.current () = None);
  Tracectx.with_ctx a (fun () ->
      Tracectx.with_minted (fun id -> check_string "with_minted inherits" a id));
  Tracectx.with_minted (fun id ->
      check_bool "with_minted mints when absent" true (Tracectx.is_valid id);
      check_bool "minted id is the ambient ctx" true (Tracectx.current () = Some id));
  check_bool "minted ctx cleared" true (Tracectx.current () = None)

let test_span_trace_stamping () =
  let id = Tracectx.mint () in
  let (), spans =
    Trace.collect (fun () ->
        Tracectx.with_ctx id (fun () ->
            Trace.with_span "stamped" (fun () ->
                let t = Trace.now_s () in
                Trace.record_span ~name:"leaf" ~start_s:t ~stop_s:t ());
            Trace.with_span "explicit"
              ~attrs:[ ("trace", String.make 16 'f') ]
              (fun () -> ()));
        Trace.with_span "bare" (fun () -> ()))
  in
  let all = List.concat_map flatten_spans spans in
  let find n = List.find (fun s -> s.Trace.name = n) all in
  check_bool "with_span stamps ambient trace" true
    (List.assoc_opt "trace" (find "stamped").Trace.attrs = Some id);
  check_bool "record_span stamps ambient trace" true
    (List.assoc_opt "trace" (find "leaf").Trace.attrs = Some id);
  check_bool "explicit trace attr wins" true
    (List.assoc_opt "trace" (find "explicit").Trace.attrs = Some (String.make 16 'f'));
  check_bool "no ctx, no stamp" true (List.assoc_opt "trace" (find "bare").Trace.attrs = None)

let test_qlog_trace_stamping () =
  Qlog.clear ();
  let id = Tracectx.mint () in
  let r1 = Qlog.add ~trace:id ~query:"Q1" ~outcome:Qlog.Fallback ~rows:1 ~seconds:0.001 () in
  check_bool "explicit trace stored" true (r1.Qlog.trace = Some id);
  let r2 =
    Tracectx.with_ctx id (fun () ->
        Qlog.add ~query:"Q2" ~outcome:Qlog.Fallback ~rows:0 ~seconds:0.0 ())
  in
  check_bool "ambient trace is the default" true (r2.Qlog.trace = Some id);
  let r3 = Qlog.add ~query:"Q3" ~outcome:Qlog.Fallback ~rows:0 ~seconds:0.0 () in
  check_bool "no ctx, no trace" true (r3.Qlog.trace = None);
  (* The JSON shape keeps the field through a round-trip. *)
  (match Qlog.record_of_json (Qlog.record_to_json r1) with
  | Ok back -> check_bool "trace survives JSON round-trip" true (back.Qlog.trace = Some id)
  | Error e -> Alcotest.fail ("record round-trip failed: " ^ e));
  Qlog.clear ()

let test_qlog_slow_counter () =
  let counter_value name =
    match List.assoc_opt name (Metrics.counters_list ()) with Some v -> v | None -> 0
  in
  let before = counter_value "kaskade.slow_queries" in
  Fun.protect
    ~finally:(fun () -> Qlog.set_slow_threshold 1.0)
    (fun () ->
      Qlog.set_slow_threshold 0.005;
      ignore (Qlog.add ~query:"fast" ~outcome:Qlog.Fallback ~rows:0 ~seconds:0.004 ());
      check_int "below threshold does not count" before (counter_value "kaskade.slow_queries");
      ignore (Qlog.add ~query:"slow" ~outcome:Qlog.Fallback ~rows:0 ~seconds:0.005 ());
      check_int "at threshold counts" (before + 1) (counter_value "kaskade.slow_queries"));
  Qlog.clear ()

(* Chrome trace export over a worker fan-out: every pool.morsel span
   replayed from the worker domains carries the originating trace id,
   and the export stays valid JSON with integer tids throughout. The
   pool oversubscribes so two real domains run on any machine, and the
   range spans several morsels. *)
let test_morsel_trace_spans () =
  let pool = Pool.create ~domains:2 ~oversubscribe:true () in
  let n = 4096 and grain = 256 in
  let id = Tracectx.mint () in
  let sums, spans =
    Trace.collect (fun () ->
        Tracectx.with_ctx id (fun () ->
            Pool.map_morsels pool ~grain ~n (fun ~lo ~hi ->
                let acc = ref 0 in
                for i = lo to hi - 1 do
                  acc := !acc + i
                done;
                !acc)))
  in
  check_int "fan-out covers the range" (n * (n - 1) / 2) (Array.fold_left ( + ) 0 sums);
  let morsels =
    List.filter (fun sp -> sp.Trace.name = "pool.morsel") (List.concat_map flatten_spans spans)
  in
  check_int "one span per morsel" (n / grain) (List.length morsels);
  List.iter
    (fun sp ->
      check_bool "morsel span carries originating trace id" true
        (List.assoc_opt "trace" sp.Trace.attrs = Some id))
    morsels;
  let chrome = Obs.Trace_export.to_chrome_string spans in
  check_bool "trace id survives into export" true (string_contains chrome id);
  match Report.parse chrome with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok j -> begin
    match Report.member "traceEvents" j with
    | Some (Report.List events) ->
      check_bool "events exported" true (events <> []);
      List.iter
        (fun e ->
          match Report.member "tid" e with
          | Some (Report.Int t) -> check_bool "tid non-negative" true (t >= 0)
          | Some (Report.Float f) ->
            check_bool "tid integral" true (Float.is_integer f && f >= 0.0)
          | _ -> Alcotest.fail "trace event without an integer tid")
        events
    | _ -> Alcotest.fail "no traceEvents array"
  end

(* ------------------------------------------------------------------ *)
(* Prometheus exposition, health model, time series                    *)

let test_prometheus_exposition () =
  let c = Metrics.counter ~help:"test counter" "test.prom.counter" in
  Metrics.incr ~by:3 c;
  let g = Metrics.gauge "test.prom.gauge" in
  Metrics.set_gauge g 2.5;
  let h = Metrics.histogram "test.prom.hist" in
  Metrics.observe h 0.004;
  Metrics.observe h 0.2;
  let text = Metrics.to_prometheus () in
  check_bool "dots sanitized + _total suffix" true
    (string_contains text "test_prom_counter_total 3");
  check_bool "counter HELP line" true
    (string_contains text "# HELP test_prom_counter_total test counter");
  check_bool "counter TYPE line" true
    (string_contains text "# TYPE test_prom_counter_total counter");
  check_bool "gauge level" true (string_contains text "test_prom_gauge 2.5");
  check_bool "gauge TYPE line" true (string_contains text "# TYPE test_prom_gauge gauge");
  check_bool "histogram TYPE line" true
    (string_contains text "# TYPE test_prom_hist histogram");
  check_bool "histogram buckets" true (string_contains text "test_prom_hist_bucket{le=");
  check_bool "+Inf bucket holds total count" true
    (string_contains text "test_prom_hist_bucket{le=\"+Inf\"} 2");
  check_bool "histogram _sum" true (string_contains text "test_prom_hist_sum");
  check_bool "histogram _count" true (string_contains text "test_prom_hist_count 2");
  (* Engine metrics registered at module init are in the same page. *)
  check_bool "engine counters exposed" true (string_contains text "kaskade_view_hits_total")

let test_health_evaluate () =
  let t = Health.default_thresholds in
  check_bool "empty sample is ok" true (Health.evaluate Health.empty_sample = Health.Ok);
  check_string "ok label" "ok" (Health.label Health.Ok);
  let degraded_on s key =
    match Health.evaluate s with
    | Health.Degraded rs ->
      check_bool (key ^ " reason present") true (List.exists (fun r -> string_contains r key) rs);
      check_bool "reasons are space-free tokens" true
        (List.for_all (fun r -> not (String.contains r ' ')) rs)
    | st -> Alcotest.failf "expected degraded on %s, got %s" key (Health.label st)
  in
  degraded_on
    { Health.empty_sample with Health.queue_depth = t.Health.max_queue_depth + 1 }
    "queue_depth";
  degraded_on { Health.empty_sample with Health.wal_lag = t.Health.max_wal_lag + 1 } "wal_lag";
  degraded_on { Health.empty_sample with Health.shed_rate = 0.2 } "shed_rate";
  (* 4x a threshold escalates to unhealthy. *)
  (match
     Health.evaluate
       { Health.empty_sample with Health.queue_depth = (t.Health.max_queue_depth * 4) + 1 }
   with
  | Health.Unhealthy rs -> check_bool "unhealthy carries reasons" true (rs <> [])
  | st -> Alcotest.failf "expected unhealthy, got %s" (Health.label st));
  (match Health.evaluate { Health.empty_sample with Health.shed_rate = 0.5 } with
  | Health.Unhealthy _ -> ()
  | st -> Alcotest.failf "expected unhealthy shed storm, got %s" (Health.label st));
  (* Stale views and plan-cache hit rate are transients: degraded at
     worst, no matter how extreme. *)
  (match Health.evaluate { Health.empty_sample with Health.stale_views = 1_000_000 } with
  | Health.Degraded _ -> ()
  | st -> Alcotest.failf "stale views must cap at degraded, got %s" (Health.label st));
  (match
     Health.evaluate
       { Health.empty_sample with Health.plan_cache_hits = 1; plan_cache_misses = 999 }
   with
  | Health.Degraded rs ->
    check_bool "plan-cache reason" true (List.exists (fun r -> string_contains r "plan_cache") rs)
  | st -> Alcotest.failf "plan-cache miss storm must degrade, got %s" (Health.label st));
  (* A cold cache (under min lookups) is not judged. *)
  check_bool "cold plan cache is ok" true
    (Health.evaluate { Health.empty_sample with Health.plan_cache_misses = 10 } = Health.Ok);
  (* Multiple hard failures: all reasons surface. *)
  (match
     Health.evaluate
       { Health.empty_sample with
         Health.queue_depth = (t.Health.max_queue_depth * 4) + 1;
         shed_rate = 0.5;
         stale_views = t.Health.max_stale_views + 1
       }
   with
  | Health.Unhealthy rs -> check_bool "all reasons listed" true (List.length rs >= 3)
  | st -> Alcotest.failf "expected unhealthy, got %s" (Health.label st));
  (* to_json renders without raising and carries the status label. *)
  let s = { Health.empty_sample with Health.queue_depth = t.Health.max_queue_depth + 1 } in
  let j = Health.to_json s (Health.evaluate s) in
  check_bool "json status" true (Report.member "status" j = Some (Report.Str "degraded"))

let test_timeseries_sampler () =
  let c = Metrics.counter ~help:"ts test" "test.ts.counter" in
  let g = Metrics.gauge "test.ts.gauge" in
  let h = Metrics.histogram "test.ts.hist" in
  let ts = Timeseries.create ~capacity:3 () in
  check_int "capacity" 3 (Timeseries.capacity ts);
  let p0 = Timeseries.sample ts in
  check_bool "baseline interval is zero" true (p0.Timeseries.interval_s = 0.0);
  Metrics.incr ~by:5 c;
  Metrics.set_gauge g 7.0;
  Metrics.observe h 1.0;
  Unix.sleepf 0.002;
  let p1 = Timeseries.sample ts in
  check_int "counter delta over the window" 5 (Timeseries.counter_delta p1 "test.ts.counter");
  check_int "absent counter delta is zero" 0 (Timeseries.counter_delta p1 "test.ts.nosuch");
  check_bool "gauge level" true (Timeseries.gauge_level p1 "test.ts.gauge" = Some 7.0);
  (match Timeseries.histogram_point p1 "test.ts.hist" with
  | Some (n, _, _, _) -> check_int "histogram count delta" 1 n
  | None -> Alcotest.fail "histogram point missing");
  check_bool "windowed rate is positive" true (Timeseries.rate p1 "test.ts.counter" > 0.0);
  (* Deltas, not cumulative levels: an idle window reads zero. *)
  let p2 = Timeseries.sample ts in
  check_int "idle window delta" 0 (Timeseries.counter_delta p2 "test.ts.counter");
  (* The ring is bounded and ordered oldest-first. *)
  ignore (Timeseries.sample ts);
  ignore (Timeseries.sample ts);
  check_int "ring bounded at capacity" 3 (Timeseries.length ts);
  let pts = Timeseries.points ts in
  check_int "points match length" 3 (List.length pts);
  check_bool "oldest first" true
    (match pts with
    | x :: y :: _ -> x.Timeseries.at_s <= y.Timeseries.at_s
    | _ -> false);
  check_bool "latest is last point" true
    (match (Timeseries.latest ts, List.rev pts) with
    | Some l, last :: _ -> l.Timeseries.at_s = last.Timeseries.at_s
    | _ -> false);
  (* Every JSONL line parses back. *)
  List.iter
    (fun line ->
      match Report.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("timeseries JSONL line invalid: " ^ e))
    (String.split_on_char '\n' (String.trim (Timeseries.to_jsonl ts)))

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span timing monotone" `Quick test_span_timing_monotone;
          Alcotest.test_case "disabled + exceptions" `Quick test_span_disabled_and_exceptions ] );
      ( "metrics",
        [ Alcotest.test_case "counter accounting" `Quick test_counter_accounting;
          Alcotest.test_case "histogram accounting" `Quick test_histogram_accounting;
          Alcotest.test_case "engine counters move" `Quick test_engine_counters_move ] );
      ( "explain",
        [ Alcotest.test_case "matches planner anchor" `Quick test_explain_matches_planner_anchor;
          Alcotest.test_case "estimates without actuals" `Quick
            test_explain_has_estimates_no_actuals ] );
      ( "profile",
        [ Alcotest.test_case "identical results" `Quick test_profile_identical_results;
          Alcotest.test_case "kaskade profile identity" `Quick test_kaskade_profile_identity;
          Alcotest.test_case "select stages timed" `Quick test_profile_select_stages_timed ] );
      ( "qlog",
        [ Alcotest.test_case "ring wraparound" `Quick test_qlog_ring_wraparound;
          Alcotest.test_case "jsonl round-trip" `Quick test_qlog_jsonl_roundtrip;
          Alcotest.test_case "facade appends" `Quick test_qlog_facade_appends ] );
      ( "trace-export",
        [ Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_valid_json;
          Alcotest.test_case "morsel spans labelled with ranges" `Quick
            test_chrome_trace_morsel_spans ] );
      ( "quantiles",
        [ Alcotest.test_case "vs sorted-array reference" `Quick test_quantiles_vs_reference;
          Alcotest.test_case "worker-domain observations" `Quick
            test_histogram_worker_observations ] );
      ( "advisor",
        [ Alcotest.test_case "matches static selection" `Quick
            test_advisor_matches_static_selection;
          Alcotest.test_case "keep after materialization" `Quick
            test_advisor_keep_after_materialization ] );
      ( "tracectx",
        [ Alcotest.test_case "mint + validity" `Quick test_tracectx_mint;
          Alcotest.test_case "scoping + restore" `Quick test_tracectx_scoping;
          Alcotest.test_case "span stamping" `Quick test_span_trace_stamping;
          Alcotest.test_case "qlog stamping + round-trip" `Quick test_qlog_trace_stamping;
          Alcotest.test_case "slow-query counter" `Quick test_qlog_slow_counter;
          Alcotest.test_case "morsel spans carry trace id" `Quick test_morsel_trace_spans ] );
      ( "telemetry",
        [ Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "health evaluation" `Quick test_health_evaluate;
          Alcotest.test_case "timeseries sampler" `Quick test_timeseries_sampler ] )
    ]
