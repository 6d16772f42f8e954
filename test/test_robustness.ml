(* End-to-end resource governance and graceful degradation: typed
   errors from [query] under deadlines/step/row caps and injected
   faults, the refresh circuit breaker opening after N consecutive
   failures, quarantined views transparently bypassed in favour of the
   base graph (verified against view-free execution), and recovery
   through the half-open probe. *)

open Kaskade_graph
module K = Kaskade
module Error = Kaskade.Error
module Budget = Kaskade_util.Budget
module Breaker = Kaskade_util.Breaker
module Catalog = Kaskade_views.Catalog
module View = Kaskade_views.View
module Executor = Kaskade_exec.Executor
module Row = Kaskade_exec.Row
module Metrics = Kaskade_obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let coauthor_query = K.parse "MATCH (a:Author)-[r*2..2]->(b:Author) RETURN a, b"
let view_name = "AUTHOR_TO_AUTHOR_2HOP"
let khop = View.Connector (View.K_hop { src_type = "Author"; dst_type = "Author"; k = 2 })

let mid_dblp () =
  Kaskade_gen.Dblp_gen.(generate { default with authors = 40; pubs = 70; venues = 5; seed = 7 })

let make_stale ks =
  let g = K.graph ks in
  let authors = Graph.vertices_of_type_name g "Author" in
  let pubs = Graph.vertices_of_type_name g "Pub" in
  K.Update.batch
    [ K.Update.Insert_edge { src = authors.(0); dst = pubs.(0); etype = "AUTHORED"; props = [] } ]
    ks

(* Every comparison below pits two base-graph executions of the same
   snapshot against each other, so raw row values — vertex ids
   included — are directly comparable. *)
let rows_of = function
  | Executor.Table t -> List.sort compare (List.map Array.to_list t.Row.rows)
  | Executor.Affected n -> [ [ Row.Prim (Value.Int n) ] ]

let qok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected facade error: %s" (Error.to_string e)

let krun ks q = qok (K.query ks q)

(* ------------------------------------------------------------------ *)
(* Budgets: every cap surfaces as a typed value, never an exception    *)

let test_budget_caps_typed () =
  let ks = K.make (mid_dblp ()) in
  let m_timeouts = Metrics.counter "kaskade.query_timeouts" in
  let timeouts0 = Metrics.counter_value m_timeouts in
  let expect_exhausted what budget =
    match K.query ~budget ks coauthor_query with
    | Error (Error.Budget_exhausted _) -> ()
    | Ok _ -> Alcotest.failf "%s: expected exhaustion, query succeeded" what
    | Error e -> Alcotest.failf "%s: wrong error class: %s" what (Error.to_string e)
  in
  expect_exhausted "0s deadline" (Budget.create ~deadline_s:0.0 ());
  expect_exhausted "5-step cap" (Budget.create ~max_steps:5 ());
  expect_exhausted "1-row cap" (Budget.create ~max_rows:1 ());
  check_int "timeouts metered" (timeouts0 + 3) (Metrics.counter_value m_timeouts);
  (* a roomy budget changes nothing about the answer *)
  match K.query ~budget:(Budget.create ~deadline_s:60.0 ~max_steps:50_000_000 ()) ks coauthor_query with
  | Ok (_, K.Raw) -> ()
  | Ok (_, K.Via_view v) -> Alcotest.failf "no views materialized, yet answered via %s" v
  | Error e -> Alcotest.failf "roomy budget exhausted: %s" (Error.to_string e)

let test_injected_timeout_typed () =
  let ks = K.make (mid_dblp ()) in
  Budget.Faults.with_spec "executor.run=timeout" (fun () ->
      match K.query ks coauthor_query with
      | Error (Error.Budget_exhausted { stage = Budget.Execute; _ }) -> ()
      | Ok _ -> Alcotest.fail "injected timeout ignored"
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  (* the fault is scoped: disarmed on exit *)
  match K.query ks coauthor_query with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fault leaked out of with_spec: %s" (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Refresh failure on the explicit (raising) path                      *)

let test_refresh_fault_explicit_path () =
  let ks = K.make ~config:{ K.Config.default with auto_refresh = false } (mid_dblp ()) in
  ignore (K.materialize ks khop);
  make_stale ks;
  Budget.Faults.with_spec "maintain.refresh=fail:n1" (fun () ->
      (* as a typed value through the guard... *)
      match Error.guard (fun () -> K.Update.refresh_views ks) with
      | Error (Error.Refresh_failed { view; _ }) -> check_string "failing view" view_name view
      | Ok _ -> Alcotest.fail "expected the injected refresh failure"
      | Error e -> Alcotest.failf "wrong error class: %s" (Error.to_string e));
  (* ...and the catalog is not wedged: the entry is back to Stale with
     its delta intact, the breaker holds one failure *)
  (match K.Update.freshness ks with
  | [ (n, Catalog.Stale [ _ ]) ] -> check_string "stale entry" view_name n
  | _ -> Alcotest.fail "expected one stale entry with its delta");
  (match K.breaker_states ks with
  | [ (n, br) ] ->
    check_string "breaker view" view_name n;
    check_int "one failure" 1 (Breaker.failures br);
    check_bool "still closed" true (Breaker.state br = Breaker.Closed)
  | _ -> Alcotest.fail "expected one breaker with history");
  (* the fault was single-shot (n1): the retry repairs the view *)
  (match K.Update.refresh_views ks with
  | [ o ] -> check_string "refreshed" view_name o.K.refreshed_view
  | _ -> Alcotest.fail "expected one refresh outcome");
  let _, how = krun ks coauthor_query in
  check_bool "view answers after repair" true (how = K.Via_view view_name);
  match K.breaker_states ks with
  | [] -> ()
  | _ -> Alcotest.fail "breaker history not cleared by the successful refresh"

(* ------------------------------------------------------------------ *)
(* Breaker: open after N failures, quarantine, fallback, recovery      *)

let test_breaker_quarantine_fallback_recovery () =
  let ks = K.make
      ~config:{ K.Config.default with breaker_threshold = 2; breaker_cooldown_s = 0.5 }
      (mid_dblp ()) in
  ignore (K.materialize ks khop);
  let _, how0 = krun ks coauthor_query in
  check_bool "fresh view answers" true (how0 = K.Via_view view_name);
  make_stale ks;
  (* a view-free twin over the identical post-update snapshot is the
     ground truth the degraded facade must agree with *)
  let twin = K.make (K.graph ks) in
  let expected = rows_of (fst (krun twin coauthor_query)) in
  let m_failures = Metrics.counter "kaskade.refresh_failures" in
  let m_open = Metrics.counter "kaskade.breaker_open" in
  let m_fallback = Metrics.counter "kaskade.fallback_runs" in
  let failures0 = Metrics.counter_value m_failures in
  let open0 = Metrics.counter_value m_open in
  let fallback0 = Metrics.counter_value m_fallback in
  Budget.Faults.(with_faults [ fault "maintain.refresh" Fail ]) (fun () ->
      (* failure 1: the auto-repair fails, the failure is swallowed,
         and the query degrades to a correct base-graph answer *)
      let r1, how1 = krun ks coauthor_query in
      check_bool "degraded to base" true (how1 = K.Raw);
      check_bool "degraded rows correct" true (rows_of r1 = expected);
      (match K.breaker_states ks with
      | [ (_, br) ] -> check_int "one failure recorded" 1 (Breaker.failures br)
      | _ -> Alcotest.fail "expected breaker history");
      (* failure 2 = threshold: the breaker opens *)
      let _, how2 = krun ks coauthor_query in
      check_bool "still degraded" true (how2 = K.Raw);
      (match K.breaker_states ks with
      | [ (n, br) ] ->
        check_string "quarantined view" view_name n;
        check_bool "breaker open" true (Breaker.state br = Breaker.Open)
      | _ -> Alcotest.fail "expected an open breaker");
      check_int "failures metered" (failures0 + 2) (Metrics.counter_value m_failures);
      check_int "one distinct opening" (open0 + 1) (Metrics.counter_value m_open);
      (* quarantined: the refresh is not even attempted (the fault is
         still armed and would have fired), the planner routes around
         the view, and the answer is still correct *)
      let r3, how3 = krun ks coauthor_query in
      check_bool "fallback while quarantined" true (how3 = K.Raw);
      check_bool "fallback rows correct" true (rows_of r3 = expected);
      (match K.breaker_states ks with
      | [ (_, br) ] -> check_int "no new failure while open" 2 (Breaker.failures br)
      | _ -> Alcotest.fail "breaker disappeared");
      (* two fallback runs: the one that opened the breaker (it was
         quarantined by planning time) and the fully quarantined one *)
      check_int "fallback runs counted" (fallback0 + 2) (Metrics.counter_value m_fallback);
      (* EXPLAIN surfaces the quarantine without touching it *)
      let rep = K.explain ks coauthor_query in
      check_bool "explain targets base" true (rep.K.target = K.Raw);
      match rep.K.candidates with
      | [ c ] ->
        check_bool "quarantine reported" true
          (c.K.cand_refresh = Some "quarantined (breaker open)");
        check_bool "breaker described" true (c.K.cand_breaker <> None)
      | _ -> Alcotest.fail "expected one candidate");
  (* cooldown elapses -> half-open probe; with the fault disarmed the
     probe refresh succeeds, the breaker closes, the view answers *)
  Unix.sleepf 0.55;
  let _, how4 = krun ks coauthor_query in
  check_bool "view answers after recovery" true (how4 = K.Via_view view_name);
  match K.breaker_states ks with
  | [] -> ()
  | _ -> Alcotest.fail "breaker not pristine after the half-open probe succeeded"

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)

let test_parse_result_position () =
  match K.parse_result "MATCH (a:Author\nRETURN a" with
  | Error (Error.Parse { line; col; message }) ->
    check_int "error on second line" 2 line;
    check_bool "column is 1-based" true (col >= 1);
    check_bool "message nonempty" true (String.length message > 0)
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.failf "wrong class: %s" (Error.to_string e)

let test_error_taxonomy () =
  check_string "label" "budget_exhausted"
    (Error.label (Error.Budget_exhausted { stage = Budget.Execute; detail = "d" }));
  (match Error.of_exn Not_found with
  | Some (Error.Plan _) -> ()
  | _ -> Alcotest.fail "Not_found classifies as Plan");
  (match Error.of_exn (Budget.Fault_injected { site = "x" }) with
  | Some (Error.Io _) -> ()
  | _ -> Alcotest.fail "escaped injected fault classifies as Io");
  (match Error.of_exn Out_of_memory with
  | None -> ()
  | Some _ -> Alcotest.fail "truly unexpected exceptions stay unclassified");
  check_bool "guard reraises the unclassified" true
    (try ignore (Error.guard (fun () -> raise Exit)); false with Exit -> true);
  check_bool "malformed fault spec rejected" true
    (try Budget.Faults.with_spec "nonsense" (fun () -> false)
     with Invalid_argument _ -> true)

(* The degradation drill on a 60-author dblp graph (seed 11), breaker
   threshold 3 with a cooldown longer than the drill: with every
   refresh failing, four queries in a row are answered from the base
   graph with the view-free twin's rows while the breaker opens; a 0 s
   deadline and an injected executor timeout are typed
   [Budget_exhausted]; and the four governance counters move by
   exactly 3 failures, 1 opening, 3 fallbacks and 2 timeouts. *)
let test_degradation_drill () =
  let threshold = 3 in
  let ks =
    K.make
      ~config:
        { K.Config.default with breaker_threshold = threshold; breaker_cooldown_s = 3600.0 }
      Kaskade_gen.Dblp_gen.(generate { default with authors = 60; pubs = 120; venues = 8; seed = 11 })
  in
  ignore (K.materialize ks khop);
  make_stale ks;
  let twin = K.make (K.graph ks) in
  let expected = rows_of (fst (krun twin coauthor_query)) in
  let counters =
    List.map Metrics.counter
      [ "kaskade.refresh_failures"; "kaskade.breaker_open"; "kaskade.fallback_runs";
        "kaskade.query_timeouts" ]
  in
  let before = List.map Metrics.counter_value counters in
  Budget.Faults.(with_faults [ fault "maintain.refresh" Fail ]) (fun () ->
      for i = 1 to threshold + 1 do
        let r, how = krun ks coauthor_query in
        check_bool (Printf.sprintf "query %d answered on the base graph" i) true (how = K.Raw);
        check_bool (Printf.sprintf "query %d rows equal the view-free twin's" i) true
          (rows_of r = expected)
      done);
  (match K.breaker_states ks with
  | [ (name, br) ] ->
    check_string "quarantined view" view_name name;
    check_bool "breaker open" true (Breaker.state br = Breaker.Open);
    check_int "opened after the threshold" threshold (Breaker.failures br)
  | _ -> Alcotest.fail "expected one breaker");
  (match K.query ~budget:(Budget.create ~deadline_s:0.0 ()) ks coauthor_query with
  | Error (Error.Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "0 s deadline did not exhaust"
  | Error e -> Alcotest.failf "0 s deadline misclassified: %s" (Error.to_string e));
  Budget.Faults.with_spec "executor.run=timeout" (fun () ->
      match K.query ks coauthor_query with
      | Error (Error.Budget_exhausted _) -> ()
      | Ok _ -> Alcotest.fail "injected executor timeout ignored"
      | Error e -> Alcotest.failf "injected timeout misclassified: %s" (Error.to_string e));
  (* threshold failures; one opening; a fallback for the opening run,
     the quarantined one and the executor-timeout run (it plans around
     the quarantined view before the fault fires); two timeouts *)
  Alcotest.(check (list int))
    "refresh_failures, breaker_open, fallback_runs, query_timeouts deltas" [ threshold; 1; 3; 2 ]
    (List.map2 (fun c b -> Metrics.counter_value c - b) counters before)

let () =
  Alcotest.run "kaskade_robustness"
    [
      ( "budget",
        [
          Alcotest.test_case "caps surface as typed errors" `Quick test_budget_caps_typed;
          Alcotest.test_case "injected timeout is typed and scoped" `Quick
            test_injected_timeout_typed;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "explicit path raises typed, catalog survives" `Quick
            test_refresh_fault_explicit_path;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens, quarantines, falls back, recovers" `Quick
            test_breaker_quarantine_fallback_recovery;
          Alcotest.test_case "degradation drill" `Quick
            test_degradation_drill;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse errors carry positions" `Quick test_parse_result_position;
          Alcotest.test_case "taxonomy classification" `Quick test_error_taxonomy;
        ] );
    ]
