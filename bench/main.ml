(* Benchmark harness entry point.

   Usage:
     bench/main.exe                 run every experiment
     bench/main.exe fig7 table3     run selected experiments
     bench/main.exe --scale 0.5 ... shrink/grow datasets (positive float)
     bench/main.exe smoke           the scaling gate: connector
                                    materialization at 4 vs 1
                                    domains; one PASS/FAIL line,
                                    exit 1 if it failed

   Experiment ids: table3 table4 fig5 fig6 fig7 fig5k fig8 catalog enum
   select e2e microbench maintenance serve recovery (see DESIGN.md's
   experiment index), plus smoke, which only runs when named. The
   experiments assert nothing; correctness checks live in the alcotest
   suites under test/. *)

let usage () =
  Printf.eprintf "usage: %s [--scale POSITIVE_FLOAT] [EXPERIMENT ...]\n" Sys.argv.(0);
  Printf.eprintf "experiments: %s smoke\n"
    (String.concat " " (List.map fst Exps.all_experiments));
  exit 2

let () =
  let gates_failed = ref false in
  let known =
    Exps.all_experiments
    @ [ ("smoke", fun () -> if not (Exps.smoke ()) then gates_failed := true) ]
  in
  let rec parse (scale, ids) = function
    | [] -> (scale, List.rev ids)
    | "--scale" :: v :: rest -> begin
      match float_of_string_opt v with
      | Some x when x > 0.0 && Float.is_finite x -> parse (x, ids) rest
      | _ -> usage ()
    end
    | id :: rest -> (
      match List.assoc_opt id known with
      | Some f -> parse (scale, (id, f) :: ids) rest
      | None -> usage ())
  in
  let scale, selected = parse (1.0, []) (List.tl (Array.to_list Sys.argv)) in
  Datasets.scale := scale;
  (* Long runs stay narratable: every 50th facade query prints one
     status line (outcome mix + latency quantiles) from the query
     log instead of minutes of silence. *)
  Kaskade_obs.Qlog.set_notifier ~every:50
    (Some (fun line -> Printf.printf "[%s]\n%!" line));
  let to_run = if selected = [] then Exps.all_experiments else selected in
  let t0 = Kaskade_util.Mclock.now_s () in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\ntotal bench time: %.1fs\n" (Kaskade_util.Mclock.now_s () -. t0);
  if !gates_failed then exit 1
