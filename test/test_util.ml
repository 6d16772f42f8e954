open Kaskade_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_distinct_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_prng_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int_in rng (-3) 4 in
    check_bool "in range" true (x >= -3 && x <= 4)
  done

let test_prng_int_invalid () =
  let rng = Prng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    check_bool "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_zipf_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 2000 do
    let x = Prng.zipf rng ~n:50 ~s:1.5 in
    check_bool "rank in bounds" true (x >= 1 && x <= 50)
  done

let test_prng_zipf_skew () =
  (* Rank 1 must dominate: with s = 1.5 over 100 ranks, rank 1 should
     hold well over a tenth of the mass. *)
  let rng = Prng.create 13 in
  let ones = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    if Prng.zipf rng ~n:100 ~s:1.5 = 1 then incr ones
  done;
  check_bool "rank-1 frequency is dominant" true (!ones > total / 10)

let test_prng_zipf_n1 () =
  let rng = Prng.create 17 in
  check_int "n=1 is constant" 1 (Prng.zipf rng ~n:1 ~s:2.0)

let test_prng_geometric () =
  let rng = Prng.create 19 in
  for _ = 1 to 1000 do
    check_bool "non-negative" true (Prng.geometric rng ~p:0.3 >= 0)
  done;
  check_int "p=1 is zero" 0 (Prng.geometric rng ~p:1.0)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let rng = Prng.create 23 in
  let child = Prng.split rng in
  check_bool "split stream differs" true (Prng.next_int64 rng <> Prng.next_int64 child)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_percentile_nearest_rank () =
  let xs = [| 15; 20; 35; 40; 50 |] in
  check_int "p30" 20 (Stats.percentile xs 30.0);
  check_int "p40" 20 (Stats.percentile xs 40.0);
  check_int "p50" 35 (Stats.percentile xs 50.0);
  check_int "p100" 50 (Stats.percentile xs 100.0)

let test_percentile_single () =
  check_int "singleton" 7 (Stats.percentile [| 7 |] 50.0)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "p out of range" (Invalid_argument "Stats.percentile: p out of (0, 100]")
    (fun () -> ignore (Stats.percentile [| 1 |] 0.0))

let test_percentiles_batch () =
  let xs = [| 5; 1; 3; 2; 4 |] in
  let rows = Stats.percentiles xs [ 20.0; 60.0; 100.0 ] in
  Alcotest.(check (list (pair (float 0.0) int)))
    "batch matches singles"
    [ (20.0, 1); (60.0, 3); (100.0, 5) ]
    rows

let test_mean_stddev () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  let sd = Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "stddev" 2.0 sd

let test_ccdf () =
  let rows = Stats.ccdf [| 1; 1; 2; 3 |] in
  Alcotest.(check (list (pair int int))) "ccdf" [ (1, 2); (2, 1); (3, 0) ] rows

let test_ccdf_monotone_qcheck =
  QCheck.Test.make ~name:"ccdf counts are non-increasing" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (0 -- 20))
    (fun xs ->
      let rows = Stats.ccdf (Array.of_list xs) in
      let counts = List.map snd rows in
      List.for_all2 (fun a b -> a >= b)
        (List.filteri (fun i _ -> i < List.length counts - 1) counts)
        (List.tl counts))

let test_linear_fit_exact () =
  let slope, intercept, r2 = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept;
  check_float "r2" 1.0 r2

let test_power_law_fit () =
  (* Degrees drawn so freq(deg > x) ~ x^-1; the fit should find a
     negative slope with a strong r^2. *)
  let degrees = Array.init 1000 (fun i -> 1 + (1000 / (i + 1))) in
  let alpha, r2 = Stats.power_law_fit degrees in
  check_bool "negative slope" true (alpha < -0.5);
  check_bool "good fit" true (r2 > 0.9)

let test_histogram () =
  let h = Stats.histogram [| 1; 2; 2; 3; 3; 3 |] in
  check_int "count 3" 3 (Hashtbl.find h 3);
  check_int "count 1" 1 (Hashtbl.find h 1)

(* ------------------------------------------------------------------ *)
(* Int_vec                                                             *)

let test_int_vec_push_get () =
  let v = Int_vec.create () in
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  check_int "length" 100 (Int_vec.length v);
  check_int "get 7" 49 (Int_vec.get v 7);
  Int_vec.set v 7 0;
  check_int "set" 0 (Int_vec.get v 7)

let test_int_vec_bounds () =
  let v = Int_vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Int_vec.get: index out of bounds") (fun () ->
      ignore (Int_vec.get v 3))

let test_int_vec_truncate () =
  let v = Int_vec.of_array [| 1; 2; 3; 4 |] in
  Int_vec.truncate v 2;
  check_int "len" 2 (Int_vec.length v);
  Int_vec.push v 9;
  Alcotest.(check (array int)) "contents" [| 1; 2; 9 |] (Int_vec.to_array v)

let test_int_vec_sort () =
  let v = Int_vec.of_array [| 3; 1; 2 |] in
  Int_vec.sort_in_place v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Int_vec.to_array v)

(* ------------------------------------------------------------------ *)
(* Scratch                                                             *)

let test_scratch_set_basic () =
  Scratch.with_set ~n:100 @@ fun s ->
  check_bool "initially absent" false (Scratch.mem s 5);
  Scratch.add s 5;
  check_bool "mem after add" true (Scratch.mem s 5);
  check_int "cardinal" 1 (Scratch.cardinal s);
  Scratch.add s 5;
  check_int "add is idempotent" 1 (Scratch.cardinal s);
  Scratch.remove s 5;
  check_bool "removed" false (Scratch.mem s 5);
  check_int "cardinal after remove" 0 (Scratch.cardinal s);
  Scratch.set_value s 7 42;
  check_int "payload" 42 (Scratch.value s 7);
  check_int "value_or default" ~-1 (Scratch.value_or s 8 ~default:~-1);
  Scratch.clear s;
  check_bool "cleared" false (Scratch.mem s 7);
  check_int "cardinal after clear" 0 (Scratch.cardinal s)

let test_scratch_borrow_fresh () =
  (* Populate a borrowed set, return it; the next borrow (which reuses
     the same underlying buffer) must start empty. *)
  Scratch.with_set ~n:50 (fun s -> Scratch.add s 3);
  Scratch.with_set ~n:50 (fun s -> check_bool "fresh borrow is empty" false (Scratch.mem s 3));
  Scratch.with_vec (fun v -> Int_vec.push v 9);
  Scratch.with_vec (fun v -> check_int "fresh vec is empty" 0 (Int_vec.length v))

let test_scratch_nested_distinct () =
  Scratch.with_set ~n:10 @@ fun a ->
  Scratch.add a 1;
  Scratch.with_set ~n:10 (fun b ->
      check_bool "nested borrow is a distinct buffer" false (Scratch.mem b 1);
      Scratch.add b 2;
      check_bool "inner add invisible outside" true (Scratch.mem b 2));
  check_bool "outer set unaffected" false (Scratch.mem a 2);
  check_bool "outer member survives" true (Scratch.mem a 1)

let test_scratch_grows () =
  Scratch.with_set ~n:4 (fun s -> Scratch.add s 3);
  Scratch.with_set ~n:10_000 (fun s ->
      Scratch.add s 9_999;
      check_bool "grown capacity" true (Scratch.mem s 9_999))

let test_scratch_value_not_member () =
  Scratch.with_set ~n:10 @@ fun s ->
  Alcotest.check_raises "value of non-member" (Invalid_argument "Scratch.value: not a member")
    (fun () -> ignore (Scratch.value s 3))

let test_scratch_vs_hashtbl_qcheck =
  QCheck.Test.make ~name:"scratch set tracks a reference Hashtbl" ~count:200
    QCheck.(list (pair (0 -- 63) bool))
    (fun ops ->
      Scratch.with_set ~n:64 @@ fun s ->
      let ht = Hashtbl.create 16 in
      List.iter
        (fun (k, add) ->
          if add then begin
            Scratch.add s k;
            Hashtbl.replace ht k ()
          end
          else begin
            Scratch.remove s k;
            Hashtbl.remove ht k
          end)
        ops;
      Scratch.cardinal s = Hashtbl.length ht
      && List.for_all (fun k -> Scratch.mem s k = Hashtbl.mem ht k) (List.init 64 Fun.id))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_clamps () =
  check_int "width >= 1" 1 (Pool.domains (Pool.create ~domains:0 ()));
  check_int "width <= 64" 64 (Pool.domains (Pool.create ~domains:1000 ()))

exception Boom of int

let test_pool_exception_propagates () =
  let p = Pool.create ~domains:4 ~oversubscribe:true () in
  Alcotest.check_raises "earliest morsel's exception" (Boom 1) (fun () ->
      ignore
        (Pool.map_morsels p ~grain:2 ~n:8 (fun ~lo ~hi:_ ->
             if lo > 0 then raise (Boom (lo / 2)) else ())))

let test_pool_raise_leaves_pool_usable () =
  (* A raising morsel must neither deadlock the fan-out nor orphan
     worker domains: every worker is joined before the exception
     propagates, so the same pool immediately serves further calls. *)
  let p = Pool.create ~domains:4 ~oversubscribe:true () in
  for round = 1 to 20 do
    (try
       ignore
         (Pool.map_morsels p ~grain:2 ~n:8 (fun ~lo ~hi:_ ->
              if lo >= 4 then raise (Boom round)))
     with Boom r -> check_int "round's own exception" round r);
    let ok = Pool.map_morsels p ~grain:2 ~n:8 (fun ~lo ~hi -> hi - lo) in
    check_int "pool still fans out after a failure" 8 (Array.fold_left ( + ) 0 ok)
  done

let test_pool_budget_cancelled_fanout () =
  (* Workers sharing an already-expired budget must all trip their
     first checkpoint, so the fan-out returns promptly instead of
     grinding through the (effectively unbounded) morsel loops. *)
  let b = Budget.create ~deadline_s:0.0 () in
  let t0 = Mclock.now_s () in
  let raised =
    try
      ignore
        (Pool.map_morsels
           (Pool.create ~domains:4 ~oversubscribe:true ())
           ~grain:1 ~n:4
           (fun ~lo:_ ~hi:_ ->
             for _ = 1 to max_int do
               Budget.step (Some b) Budget.Execute
             done));
      false
    with Budget.Exhausted _ -> true
  in
  check_bool "fan-out cancelled by budget" true raised;
  check_bool "returned promptly" true (Mclock.now_s () -. t0 < 10.0)

let test_pool_workers_use_scratch () =
  (* Scratch pools are domain-local: concurrent borrows on worker
     domains must not interfere. *)
  let p = Pool.create ~domains:4 ~oversubscribe:true () in
  let sums =
    Pool.map_morsels p ~grain:1 ~n:4 (fun ~lo ~hi:_ ->
        Scratch.with_set ~n:100 @@ fun s ->
        for i = 0 to 99 do
          if i mod (lo + 2) = 0 then Scratch.add s i
        done;
        Scratch.cardinal s)
  in
  Alcotest.(check (array int)) "per-domain scratch results" [| 50; 34; 25; 20 |] sums

(* ------------------------------------------------------------------ *)
(* Morsels                                                             *)

(* Oversubscription forces real multi-domain execution even when the
   host has fewer cores than the requested width — which is exactly
   what these tests need: without it a single-core CI box caps every
   pool to one worker and every width takes the same sequential path. *)
let morsel_pool w = Pool.create ~domains:w ~oversubscribe:true ()

let test_morsel_ranges_partition () =
  let p = morsel_pool 4 in
  List.iter
    (fun grain ->
      let morsels = Pool.map_morsels p ~grain ~n:10 (fun ~lo ~hi -> (lo, hi)) in
      let _ =
        Array.fold_left
          (fun expected (lo, hi) ->
            check_int "contiguous" expected lo;
            check_bool "non-empty" true (hi > lo);
            check_bool "grain respected" true (hi - lo <= grain);
            hi)
          0 morsels
      in
      check_int "covers n" 10 (snd morsels.(Array.length morsels - 1)))
    [ 1; 3; 4; 10; 99 ];
  check_int "n=0 is empty" 0 (Array.length (Pool.map_morsels p ~n:0 (fun ~lo:_ ~hi:_ -> ())))

let test_morsel_effective_workers () =
  check_bool "default pool caps at hardware parallelism" true
    (Pool.effective_workers (Pool.create ~domains:64 ()) <= 64);
  check_int "oversubscribed pool keeps its width" 7 (Pool.effective_workers (morsel_pool 7));
  check_int "width 1 is sequential either way" 1 (Pool.effective_workers (morsel_pool 1))

let test_morsel_deterministic_widths_and_grains () =
  (* The determinism contract: concatenated output is identical at
     every width AND every grain — work stealing only changes which
     domain computes a morsel, never which range a morsel covers. *)
  let work ~lo ~hi = Array.init (hi - lo) (fun j -> (lo + j) * (lo + j)) in
  let flat w grain =
    Array.concat (Array.to_list (Pool.map_morsels (morsel_pool w) ?grain ~n:37 work))
  in
  let expected = flat 1 None in
  List.iter
    (fun w ->
      List.iter
        (fun g ->
          Alcotest.(check (array int))
            (Printf.sprintf "width %d grain %s" w
               (match g with None -> "auto" | Some g -> string_of_int g))
            expected (flat w g))
        [ None; Some 1; Some 3; Some 8; Some 64 ])
    [ 1; 2; 4; 7 ]

let test_morsel_earliest_exception_deterministic () =
  (* Every morsel raises; grain 1 maximizes contention on the shared
     cursor, yet the lowest-indexed morsel's exception — the one a
     sequential run would hit first — is always the one reported. *)
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "earliest morsel wins at width %d" w)
        (Boom 0)
        (fun () ->
          ignore
            (Pool.map_morsels (morsel_pool w) ~grain:1 ~n:8 (fun ~lo ~hi:_ -> raise (Boom lo)))))
    [ 1; 2; 4 ]

let test_morsel_budget_exhausted_leaves_pool_usable () =
  (* Budget exhaustion mid-morsel: the shared expired budget trips
     every worker's first checkpoint, the fan-out joins all domains,
     rethrows the lowest morsel's typed [Budget.Exhausted], and the
     same pool immediately serves further calls — no leaked workers,
     no stuck cursor. *)
  let p = morsel_pool 4 in
  for _round = 1 to 10 do
    let b = Budget.create ~deadline_s:0.0 () in
    let stage =
      try
        ignore
          (Pool.map_morsels p ~grain:1 ~n:8 (fun ~lo:_ ~hi:_ ->
               Budget.step (Some b) Budget.Execute));
        None
      with Budget.Exhausted e -> Some e.stage
    in
    check_bool "typed Budget.Exhausted at Execute surfaced" true (stage = Some Budget.Execute);
    let ok = Pool.map_morsels p ~grain:1 ~n:8 (fun ~lo ~hi -> hi - lo) in
    check_int "pool still fans out after exhaustion" 8 (Array.fold_left ( + ) 0 ok)
  done

(* ------------------------------------------------------------------ *)
(* Observability truncation under live worker domains                  *)

module Metrics = Kaskade_obs.Metrics
module Qlog = Kaskade_obs.Qlog

let test_metrics_reset_during_fanout () =
  (* Metrics.reset from one morsel while the other morsels observe:
     no crash, no torn values, and the instruments keep working. *)
  let c = Metrics.counter "test.race.counter" in
  let h = Metrics.histogram "test.race.hist" in
  Metrics.reset ();
  let p = Pool.create ~domains:4 ~oversubscribe:true () in
  let per_chunk = 2_000 in
  ignore
    (Pool.map_morsels p ~grain:1 ~n:4 (fun ~lo ~hi:_ ->
         if lo = 0 then
           for _ = 1 to 50 do
             Metrics.reset ();
             ignore (Metrics.counter_value c);
             ignore (Metrics.histogram_sum h);
             ignore (Metrics.quantile h 0.5)
           done
         else
           for i = 1 to per_chunk do
             Metrics.incr c;
             Metrics.observe h (float_of_int i)
           done));
  (* Three observing morsels; resets only ever discard, never duplicate. *)
  let v = Metrics.counter_value c in
  check_bool "counter value in range" true (v >= 0 && v <= 3 * per_chunk);
  let n = Metrics.histogram_count h in
  check_bool "histogram count in range" true (n >= 0 && n <= 3 * per_chunk);
  check_bool "histogram sum consistent with count" true
    (n > 0 || Metrics.histogram_sum h = 0.0);
  Metrics.reset ();
  check_int "reset lands after the race" 0 (Metrics.counter_value c);
  Metrics.incr c;
  check_int "instrument survives the race" 1 (Metrics.counter_value c);
  Metrics.reset ()

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

let test_qlog_truncation_race_qcheck =
  QCheck.Test.make ~name:"qlog truncation is safe under worker appends" ~count:20
    QCheck.(pair (2 -- 16) (10 -- 80))
    (fun (cap, per_worker) ->
      Qlog.clear ();
      Qlog.set_capacity cap;
      let total0 = Qlog.total () in
      let p = Pool.create ~domains:4 ~oversubscribe:true () in
      ignore
        (Pool.map_morsels p ~grain:1 ~n:4 (fun ~lo ~hi:_ ->
             if lo = 0 then
               (* One morsel truncates and resizes while the others append. *)
               for i = 1 to 30 do
                 if i mod 2 = 0 then Qlog.clear () else Qlog.set_capacity (1 + (i mod cap));
                 ignore (Qlog.length ());
                 ignore (Qlog.summary ())
               done
             else
               for i = 1 to per_worker do
                 ignore
                   (Qlog.add ~query:"MATCH (x) RETURN x" ~outcome:Qlog.Fallback ~rows:i
                      ~seconds:0.001 ())
               done));
      let held = Qlog.records () in
      let ok =
        (* Window bounded by the (final) capacity, records untorn and in
           append order, and every append counted exactly once. *)
        List.length held = Qlog.length ()
        && Qlog.length () <= Qlog.capacity ()
        && strictly_increasing (List.map (fun r -> r.Qlog.seq) held)
        && List.for_all
             (fun r -> r.Qlog.query = "MATCH (x) RETURN x" && r.Qlog.outcome = Qlog.Fallback)
             held
        && Qlog.total () - total0 = 3 * per_worker
      in
      Qlog.set_capacity 512;
      Qlog.clear ();
      ok)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_fmt_int () =
  Alcotest.(check string) "thousands" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "small" "42" (Table.fmt_int 42)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "30"; "40" ] ] in
  check_bool "has header" true (String.length s > 0);
  check_bool "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun line -> String.length line > 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ test_ccdf_monotone_qcheck;
      test_scratch_vs_hashtbl_qcheck;
      test_qlog_truncation_race_qcheck
    ]

let () =
  Alcotest.run "kaskade_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "distinct seeds" `Quick test_prng_distinct_seeds;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "zipf bounds" `Quick test_prng_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "zipf n=1" `Quick test_prng_zipf_n1;
          Alcotest.test_case "geometric" `Quick test_prng_geometric;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "percentile singleton" `Quick test_percentile_single;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "percentiles batch" `Quick test_percentiles_batch;
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "ccdf" `Quick test_ccdf;
          Alcotest.test_case "linear fit" `Quick test_linear_fit_exact;
          Alcotest.test_case "power-law fit" `Quick test_power_law_fit;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "int_vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_int_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_int_vec_bounds;
          Alcotest.test_case "truncate" `Quick test_int_vec_truncate;
          Alcotest.test_case "sort" `Quick test_int_vec_sort;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "set basics" `Quick test_scratch_set_basic;
          Alcotest.test_case "borrow starts fresh" `Quick test_scratch_borrow_fresh;
          Alcotest.test_case "nested borrows distinct" `Quick test_scratch_nested_distinct;
          Alcotest.test_case "capacity grows" `Quick test_scratch_grows;
          Alcotest.test_case "value of non-member" `Quick test_scratch_value_not_member;
        ] );
      ( "pool",
        [
          Alcotest.test_case "clamps" `Quick test_pool_clamps;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "raising morsel leaves pool usable" `Quick
            test_pool_raise_leaves_pool_usable;
          Alcotest.test_case "budget-cancelled fan-out returns" `Quick test_pool_budget_cancelled_fanout;
          Alcotest.test_case "workers use scratch" `Quick test_pool_workers_use_scratch;
          Alcotest.test_case "metrics reset during fan-out" `Quick
            test_metrics_reset_during_fanout;
        ] );
      ( "morsels",
        [
          Alcotest.test_case "ranges partition [0,n)" `Quick test_morsel_ranges_partition;
          Alcotest.test_case "effective workers" `Quick test_morsel_effective_workers;
          Alcotest.test_case "deterministic across widths and grains" `Quick
            test_morsel_deterministic_widths_and_grains;
          Alcotest.test_case "earliest exception wins at widths 1/2/4" `Quick
            test_morsel_earliest_exception_deterministic;
          Alcotest.test_case "budget exhaustion leaves pool usable" `Quick
            test_morsel_budget_exhausted_leaves_pool_usable;
        ] );
      ( "table",
        [
          Alcotest.test_case "fmt_int" `Quick test_fmt_int;
          Alcotest.test_case "render" `Quick test_table_render;
        ] );
      ("properties", qcheck_cases);
    ]
