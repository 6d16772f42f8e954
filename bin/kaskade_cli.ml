(* Command-line front end:

     kaskade_cli generate --dataset prov --edges 50000
     kaskade_cli enumerate --dataset prov --query "MATCH ... RETURN ..."
     kaskade_cli select --dataset prov --budget 100000 --query "..."
     kaskade_cli run --dataset prov --query "..." [--no-views] [--profile]
     kaskade_cli explain --dataset prov --query "..." [--json]
     kaskade_cli update --dataset prov --query "..." --random 32 [-o out.kg]
     kaskade_cli refresh --dataset prov --query "..." --random 32
     kaskade_cli snapshot --data-dir DIR --query "..."
     kaskade_cli recover --data-dir DIR [--query "..."]
     kaskade_cli stats --dataset dblp

   Datasets are generated on the fly (deterministic seeds); see
   lib/gen for the generators' shapes. *)

open Cmdliner
open Kaskade_graph

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log view selection and rewriting decisions.")

let build_dataset name edges seed =
  match name with
  | "prov" ->
    Kaskade_gen.Provenance_gen.(generate (scaled ~edges ~seed))
  | "prov-summarized" ->
    let raw = Kaskade_gen.Provenance_gen.(generate (scaled ~edges ~seed)) in
    (Kaskade_views.Materialize.materialize raw
       (Kaskade_views.View.Summarizer
          (Kaskade_views.View.Vertex_inclusion Kaskade_gen.Provenance_gen.summarized_types)))
      .Kaskade_views.Materialize.graph
  | "dblp" -> Kaskade_gen.Dblp_gen.(generate (scaled ~edges ~seed))
  | "soc" -> Kaskade_gen.Powerlaw_gen.(generate (scaled ~edges ~seed))
  | "road" -> Kaskade_gen.Road_gen.(generate (scaled ~edges ~seed))
  | other -> failwith ("unknown dataset " ^ other ^ " (try: prov prov-summarized dblp soc road)")

let dataset_arg =
  Arg.(value & opt string "prov" & info [ "d"; "dataset" ] ~docv:"NAME"
         ~doc:"Dataset: prov, prov-summarized, dblp, soc or road.")

let graph_file_arg =
  Arg.(value & opt (some string) None & info [ "g"; "graph" ] ~docv:"FILE"
         ~doc:"Load the graph from a kaskade-graph file instead of generating a dataset.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Also save the graph to FILE (kaskade-graph format).")

let load_or_generate graph_file name edges seed =
  match graph_file with
  | Some path -> Kaskade_graph.Gio.load path
  | None -> build_dataset name edges seed

let edges_arg =
  Arg.(value & opt int 50_000 & info [ "edges" ] ~docv:"N" ~doc:"Approximate edge count.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")

let query_arg =
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
         ~doc:"Query in the hybrid MATCH/SELECT language.")

let budget_arg =
  Arg.(value & opt int 1_000_000 & info [ "budget" ] ~docv:"EDGES"
         ~doc:"View materialization budget in edges (knapsack capacity).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Dump the process-wide metrics registry as JSON to FILE on exit (- for stdout).")

(* Durability knobs (update / refresh / serve / snapshot / recover). *)
let fsync_conv =
  let parse s =
    match Kaskade_store.Wal.fsync_policy_of_string s with
    | p -> Ok p
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf p -> Format.pp_print_string ppf (Kaskade_store.Wal.fsync_policy_to_string p) )

let data_dir_arg =
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
         ~doc:"Durable data directory: every update batch is write-ahead logged (and \
               fsynced per $(b,--fsync)) there before it applies, and binary snapshots \
               accumulate for crash recovery ($(b,kaskade_cli recover)).")

let data_dir_req_arg =
  Arg.(required & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
         ~doc:"Durable data directory (WAL + snapshots).")

let fsync_arg =
  Arg.(value & opt fsync_conv Kaskade_store.Wal.Always & info [ "fsync" ] ~docv:"POLICY"
         ~doc:"WAL fsync policy: $(b,always) (no acknowledged batch is ever lost), \
               $(b,never) (OS page cache only), or $(b,every:N) (amortized).")

let snapshot_every_arg =
  Arg.(value & opt int 512 & info [ "snapshot-every" ] ~docv:"N"
         ~doc:"Update batches between automatic snapshots; 0 disables the cadence \
               (snapshots then only happen via $(b,kaskade_cli snapshot)).")

let dump_metrics = function
  | None -> ()
  | Some "-" -> print_endline (Kaskade_obs.Report.to_string ~pretty:true (Kaskade_obs.Metrics.to_json ()))
  | Some path ->
    let oc = open_out path in
    output_string oc (Kaskade_obs.Report.to_string ~pretty:true (Kaskade_obs.Metrics.to_json ()));
    output_char oc '\n';
    close_out oc

(* Compiler-style rendering: "query:LINE:COL: parse error: ...". *)
let render_parse_error msg line col =
  Printf.sprintf "query:%d:%d: parse error: %s" line col msg

let parse_or_die src =
  match Kaskade.parse src with
  | q -> q
  | exception Kaskade_query.Qparser.Parse_error { message; line; col } ->
    Printf.eprintf "%s\n" (render_parse_error message line col);
    exit 1

(* One-query subcommands surface governed failures exactly like the
   top-level handler: a one-line typed message and exit 1. *)
let query_or_die ?target ?budget ks q =
  match Kaskade.query ?target ?budget ks q with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "kaskade_cli: %s\n" (Kaskade.Error.to_string e);
    exit 1

(* Opportunistic workload analysis for a single ad-hoc query: select
   under the budget, then materialize whatever the knapsack chose. *)
let select_and_materialize ks q budget =
  let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:budget in
  Kaskade.materialize_selected ks sel

let generate_cmd =
  let run name edges seed out =
    let g = build_dataset name edges seed in
    Format.printf "%a@." Graph.pp_summary g;
    Format.printf "%a@." Gstats.pp (Gstats.compute g);
    match out with
    | Some path ->
      Kaskade_graph.Gio.save g path;
      Printf.printf "saved to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a dataset, print statistics, optionally save it.")
    Term.(const run $ dataset_arg $ edges_arg $ seed_arg $ out_arg)

let stats_cmd =
  let run name edges seed graph_file =
    let g = load_or_generate graph_file name edges seed in
    Format.printf "%a@." Gstats.pp (Gstats.compute g);
    let r = Kaskade_graph.Degree_dist.of_graph g in
    Format.printf "degree distribution: %a@." Kaskade_graph.Degree_dist.pp r
  in
  Cmd.v (Cmd.info "stats" ~doc:"Degree statistics and power-law fit of a dataset.")
    Term.(const run $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg)

let enumerate_cmd =
  let run name edges seed graph_file query =
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let q = parse_or_die query in
    let e = Kaskade.enumerate_views ks q in
    Printf.printf "%d candidates (%d inference steps):\n"
      (List.length e.Kaskade.Enumerate.candidates) e.Kaskade.Enumerate.inference_steps;
    List.iter
      (fun (c : Kaskade.Enumerate.candidate) ->
        Printf.printf "  %-26s %s\n"
          (Kaskade_views.View.name c.Kaskade.Enumerate.view)
          (Kaskade_views.View.describe c.Kaskade.Enumerate.view))
      e.Kaskade.Enumerate.candidates
  in
  Cmd.v (Cmd.info "enumerate" ~doc:"Constraint-based view enumeration for a query.")
    Term.(const run $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg $ query_arg)

let select_cmd =
  let run name edges seed graph_file query budget =
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let q = parse_or_die query in
    let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:budget in
    List.iter
      (fun (r : Kaskade.Selection.candidate_report) ->
        Printf.printf "%-26s size=%12.0f cost=%12.0f improvement=%8.2f value=%.6f%s\n"
          (Kaskade_views.View.name r.Kaskade.Selection.view)
          r.Kaskade.Selection.est_size r.Kaskade.Selection.creation_cost
          r.Kaskade.Selection.improvement r.Kaskade.Selection.value
          (if r.Kaskade.Selection.chosen then "  <- chosen" else ""))
      sel.Kaskade.Selection.reports
  in
  Cmd.v (Cmd.info "select" ~doc:"Knapsack view selection for a workload under a budget.")
    Term.(const run $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg $ query_arg $ budget_arg)

let run_cmd =
  let no_views =
    Arg.(value & flag & info [ "no-views" ] ~doc:"Evaluate on the raw graph only.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Also print the operator tree with actual rows and per-operator wall time.")
  in
  let run verbose name edges seed graph_file query budget no_views profile metrics =
    setup_logs verbose;
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let q = parse_or_die query in
    if not no_views then begin
      let entries = select_and_materialize ks q budget in
      List.iter
        (fun (e : Kaskade_views.Catalog.entry) ->
          Printf.printf "materialized %s (%d edges)\n"
            (Kaskade_views.View.name
               e.Kaskade_views.Catalog.materialized.Kaskade_views.Materialize.view)
            e.Kaskade_views.Catalog.size_edges)
        entries
    end;
    let t0 = Kaskade_util.Mclock.now_s () in
    let result, how, report =
      if no_views then
        if profile then begin
          let result, plan =
            Kaskade_exec.Executor.run_explained ~profile:true (Kaskade.base_ctx ks) q
          in
          (result, Kaskade.Raw, Some (`Plan plan))
        end
        else begin
          let result, _ = query_or_die ~target:Kaskade.Base ks q in
          (result, Kaskade.Raw, None)
        end
      else if profile then begin
        let result, report = Kaskade.profile ks q in
        (result, report.Kaskade.target, Some (`Report report))
      end
      else begin
        let result, how = query_or_die ks q in
        (result, how, None)
      end
    in
    let dt = Kaskade_util.Mclock.now_s () -. t0 in
    let target, target_graph =
      match how with
      | Kaskade.Raw -> ("raw graph", g)
      | Kaskade.Via_view v ->
        ( "view " ^ v,
          (Option.get (Kaskade_views.Catalog.find_by_name (Kaskade.catalog ks) v))
            .Kaskade_views.Catalog.materialized.Kaskade_views.Materialize.graph )
    in
    (match result with
    | Kaskade_exec.Executor.Table t ->
      Format.printf "%a@." (Kaskade_exec.Row.pp target_graph) t;
      Printf.printf "%d rows" (Kaskade_exec.Row.n_rows t)
    | Kaskade_exec.Executor.Affected n -> Printf.printf "updated %d entities" n);
    Printf.printf " via %s in %.3fs\n" target dt;
    (match report with
    | Some (`Report r) -> print_string (Kaskade.report_to_string r)
    | Some (`Plan p) -> Printf.printf "plan:\n%s" (Kaskade_obs.Explain.render p)
    | None -> ());
    dump_metrics metrics
  in
  Cmd.v (Cmd.info "run" ~doc:"Answer a query, transparently using materialized views.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_arg $ budget_arg $ no_views $ profile $ metrics_arg)

let explain_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON instead of text.")
  in
  let no_views =
    Arg.(value & flag & info [ "no-views" ]
           ~doc:"Skip view selection/materialization; explain against the raw graph only.")
  in
  let run verbose name edges seed graph_file query budget no_views json metrics =
    setup_logs verbose;
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let q = parse_or_die query in
    if not no_views then ignore (select_and_materialize ks q budget);
    let report = Kaskade.explain ks q in
    if json then
      print_endline (Kaskade_obs.Report.to_string ~pretty:true (Kaskade.report_json report))
    else print_string (Kaskade.report_to_string report);
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the rewrite decision (raw graph vs materialized view) and the operator tree \
          with estimated cardinalities, without executing the query.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_arg $ budget_arg $ no_views $ json $ metrics_arg)

(* --op specs: "insert-vertex:TYPE", "insert-edge:SRC:DST:ETYPE",
   "delete-edge:SRC:DST:ETYPE" (vertex ids as printed by query
   results; props not settable from the command line). *)
let op_conv =
  let parse s =
    let int_of field v =
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (`Msg (Printf.sprintf "op %S: %s must be a vertex id, got %S" s field v))
    in
    match String.split_on_char ':' s with
    | [ "insert-vertex"; vtype ] -> Ok (Kaskade.Update.Insert_vertex { vtype; props = [] })
    | [ "insert-edge"; src; dst; etype ] ->
      Result.bind (int_of "src" src) (fun src ->
          Result.bind (int_of "dst" dst) (fun dst ->
              Ok (Kaskade.Update.Insert_edge { src; dst; etype; props = [] })))
    | [ "delete-edge"; src; dst; etype ] ->
      Result.bind (int_of "src" src) (fun src ->
          Result.bind (int_of "dst" dst) (fun dst ->
              Ok (Kaskade.Update.Delete_edge { src; dst; etype })))
    | _ ->
      Error
        (`Msg
          (Printf.sprintf
             "op %S: expected insert-vertex:TYPE, insert-edge:SRC:DST:ETYPE or \
              delete-edge:SRC:DST:ETYPE"
             s))
  in
  Arg.conv (parse, Kaskade.Update.pp_op)

let ops_arg =
  Arg.(value & opt_all op_conv [] & info [ "op" ] ~docv:"OP"
         ~doc:"Apply this update (repeatable): $(b,insert-vertex:TYPE), \
               $(b,insert-edge:SRC:DST:ETYPE) or $(b,delete-edge:SRC:DST:ETYPE).")

let random_ops_arg =
  Arg.(value & opt int 0 & info [ "random" ] ~docv:"N"
         ~doc:"Also apply N random schema-valid ops (half inserts, half deletes).")

let update_seed_arg =
  Arg.(value & opt int 7 & info [ "update-seed" ] ~docv:"S" ~doc:"Seed for --random ops.")

let query_opt_arg =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
         ~doc:"Materialize views for this query first (knapsack under --budget), so the \
               update has a catalog to invalidate.")

let collect_ops ks specs random useed =
  let rand =
    if random <= 0 then []
    else
      Kaskade_gen.Mutate.random_ops ~inserts:((random + 1) / 2) ~deletes:(random / 2) ~seed:useed
        (Kaskade.graph ks)
  in
  specs @ rand

let print_freshness ks =
  match Kaskade.Update.freshness ks with
  | [] -> print_endline "catalog: empty"
  | entries ->
    List.iter
      (fun (n, f) -> Printf.printf "  %-26s %s\n" n (Kaskade_views.Catalog.freshness_label f))
      entries

let print_outcomes = function
  | [] -> print_endline "nothing to refresh: every view is fresh"
  | outcomes ->
    List.iter
      (fun (o : Kaskade.refresh_outcome) ->
        Printf.printf "refreshed %-26s %s (%d ops, %.4fs)\n" o.Kaskade.refreshed_view
          (Kaskade_views.Maintain.describe_strategy o.Kaskade.refresh_strategy)
          o.Kaskade.refresh_ops o.Kaskade.refresh_seconds)
      outcomes

let setup_live verbose name edges seed graph_file query budget data_dir fsync snapshot_every =
  setup_logs verbose;
  let g = load_or_generate graph_file name edges seed in
  (* Refreshes are driven explicitly from these subcommands. *)
  let ks =
    Kaskade.make
      ~config:
        {
          Kaskade.Config.default with
          auto_refresh = false;
          data_dir;
          fsync_policy = fsync;
          snapshot_every;
        }
      g
  in
  (match query with
  | Some qs -> ignore (select_and_materialize ks (parse_or_die qs) budget)
  | None -> ());
  ks

let update_cmd =
  let run verbose name edges seed graph_file query budget data_dir fsync snapshot_every specs
      random useed out metrics =
    let ks =
      setup_live verbose name edges seed graph_file query budget data_dir fsync snapshot_every
    in
    let ops = collect_ops ks specs random useed in
    if ops = [] then begin
      Printf.eprintf "nothing to apply: pass --op and/or --random N\n";
      exit 1
    end;
    (try Kaskade.Update.batch ops ks
     with Invalid_argument msg ->
       Printf.eprintf "update rejected: %s\n" msg;
       exit 1);
    let g' = Kaskade.graph ks in
    Printf.printf "applied %d ops: %d vertices, %d edges\n" (List.length ops)
      (Graph.n_vertices g') (Graph.n_edges g');
    print_freshness ks;
    (match out with
    | Some path ->
      Kaskade_graph.Gio.save g' path;
      Printf.printf "saved updated graph to %s\n" path
    | None -> ());
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply an update batch through the live overlay, report which materialized views \
          went stale, and optionally save the updated graph. With --data-dir the batch is \
          write-ahead logged before it applies.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_opt_arg $ budget_arg $ data_dir_arg $ fsync_arg $ snapshot_every_arg
          $ ops_arg $ random_ops_arg $ update_seed_arg $ out_arg $ metrics_arg)

let refresh_cmd =
  let run verbose name edges seed graph_file query budget data_dir fsync snapshot_every specs
      random useed metrics =
    let ks =
      setup_live verbose name edges seed graph_file query budget data_dir fsync snapshot_every
    in
    let ops = collect_ops ks specs random useed in
    if ops <> [] then begin
      Kaskade.Update.batch ops ks;
      Printf.printf "applied %d ops\n" (List.length ops)
    end;
    print_freshness ks;
    print_outcomes (Kaskade.Update.refresh_views ks);
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "refresh"
       ~doc:
         "Repair stale materialized views (incrementally where the delta allows, flagged \
          full rebuild otherwise) and report the strategy, ops absorbed and wall time per \
          view. Combine with --op/--random to stale the catalog first.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_opt_arg $ budget_arg $ data_dir_arg $ fsync_arg $ snapshot_every_arg
          $ ops_arg $ random_ops_arg $ update_seed_arg $ metrics_arg)

(* Durability subcommands -------------------------------------------- *)

let snapshot_cmd =
  let run verbose name edges seed graph_file query budget data_dir fsync snapshot_every specs
      random useed metrics =
    let ks =
      setup_live verbose name edges seed graph_file query budget (Some data_dir) fsync
        snapshot_every
    in
    let ops = collect_ops ks specs random useed in
    if ops <> [] then begin
      Kaskade.Update.batch ops ks;
      Printf.printf "applied %d ops (write-ahead logged)\n" (List.length ops)
    end;
    let path = Kaskade.snapshot ks in
    (match Kaskade.store ks with
    | Some s ->
      Printf.printf "snapshot written to %s (covers WAL seq %d)\n" path
        (Kaskade_store.Store.last_seq s)
    | None -> ());
    print_freshness ks;
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Open (or create) a durable data directory, optionally materialize views for a \
          query and apply updates, then write a crash-atomic binary snapshot of the frozen \
          graph plus the whole view catalog — the anchor $(b,kaskade_cli recover) replays \
          the WAL tail onto.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_opt_arg $ budget_arg $ data_dir_req_arg $ fsync_arg $ snapshot_every_arg
          $ ops_arg $ random_ops_arg $ update_seed_arg $ metrics_arg)

let recover_cmd =
  let query_run_arg =
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"Run this query on the recovered store (stale views are repaired first).")
  in
  let run verbose data_dir fsync snapshot_every query metrics =
    setup_logs verbose;
    let config =
      { Kaskade.Config.default with Kaskade.Config.fsync_policy = fsync; snapshot_every }
    in
    let ks = Kaskade.recover ~config data_dir in
    let g = Kaskade.graph ks in
    Format.printf "recovered from %s: %a@." data_dir Graph.pp_summary g;
    (match Kaskade.store ks with
    | Some s ->
      Printf.printf "snapshot seq %d, WAL seq %d\n" (Kaskade_store.Store.snapshot_seq s)
        (Kaskade_store.Store.last_seq s)
    | None -> ());
    let counter name = Kaskade_obs.Metrics.counter_value (Kaskade_obs.Metrics.counter name) in
    Printf.printf "replayed %d ops from the WAL tail, %d torn tail record(s) truncated\n"
      (counter "kaskade.recovery_replayed_ops")
      (counter "kaskade.recovery_truncated_records");
    print_freshness ks;
    (match query with
    | Some qs ->
      let q = parse_or_die qs in
      let result, how = query_or_die ks q in
      let rows =
        match result with
        | Kaskade_exec.Executor.Table t -> Kaskade_exec.Row.n_rows t
        | Kaskade_exec.Executor.Affected n -> n
      in
      Printf.printf "query: %d rows via %s\n" rows
        (match how with Kaskade.Raw -> "base graph" | Kaskade.Via_view v -> "view " ^ v)
    | None -> ());
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild a Kaskade instance from a durable data directory: load the newest valid \
          snapshot (graph + view catalog with per-view freshness), replay the WAL tail \
          past its sequence number — truncating a torn final record from a crash \
          mid-append — and report what was recovered.")
    Term.(const run $ verbose_arg $ data_dir_req_arg $ fsync_arg $ snapshot_every_arg
          $ query_run_arg $ metrics_arg)

(* Workload telemetry subcommands ------------------------------------ *)

let queries_arg =
  Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"QUERY"
         ~doc:"Workload query (repeatable).")

let repeat_arg =
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
         ~doc:"Run each workload query N times.")

let require_queries cmd = function
  | [] ->
    Printf.eprintf "kaskade_cli %s: pass at least one -q QUERY\n" cmd;
    exit 1
  | queries -> List.map parse_or_die queries

(* Drive the workload through the facade's governed entry point: every
   run lands in the query log, including budget/semantic failures. *)
let run_workload ks qs repeat =
  List.iter (fun q -> for _ = 1 to repeat do ignore (Kaskade.query ks q) done) qs

let outcome_label (r : Kaskade_obs.Qlog.record) =
  match r.Kaskade_obs.Qlog.outcome with
  | Kaskade_obs.Qlog.View_hit v -> "via " ^ v
  | Kaskade_obs.Qlog.Fallback -> "fallback"
  | Kaskade_obs.Qlog.Failed l -> "FAILED " ^ l

let log_cmd =
  let no_views =
    Arg.(value & flag & info [ "no-views" ]
           ~doc:"Skip view selection/materialization; every query falls back to the base graph.")
  in
  let capacity =
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N"
           ~doc:"Query-log ring capacity (default 512); older records fall off.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the captured log as JSONL to FILE ($(b,-) for stdout) — the format \
                 $(b,kaskade_cli advise --log) replays.")
  in
  let slow =
    Arg.(value & opt (some float) None & info [ "slow" ] ~docv:"MS"
           ~doc:"Slow-query view: only show/save records that took at least MS milliseconds. \
                 Also sets the threshold the $(b,kaskade.slow_queries) counter applies while \
                 the workload runs.")
  in
  let run verbose name edges seed graph_file queries repeat budget no_views capacity out
      slow metrics =
    setup_logs verbose;
    let qs = require_queries "log" queries in
    (match capacity with Some c -> Kaskade_obs.Qlog.set_capacity c | None -> ());
    (match slow with
    | Some ms -> Kaskade_obs.Qlog.set_slow_threshold (ms /. 1000.0)
    | None -> ());
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    if not no_views then begin
      let sel = Kaskade.select_views ks ~queries:qs ~budget_edges:budget in
      ignore (Kaskade.materialize_selected ks sel)
    end;
    run_workload ks qs repeat;
    let all = Kaskade_obs.Qlog.records () in
    let selected =
      match slow with
      | None -> all
      | Some ms ->
        List.filter (fun (r : Kaskade_obs.Qlog.record) -> r.seconds *. 1000.0 >= ms) all
    in
    let jsonl rs =
      String.concat ""
        (List.map
           (fun r ->
             Kaskade_obs.Report.to_string ~pretty:false (Kaskade_obs.Qlog.record_to_json r)
             ^ "\n")
           rs)
    in
    (match out with
    | Some "-" -> print_string (jsonl selected)
    | Some path ->
      let oc = open_out path in
      output_string oc (jsonl selected);
      close_out oc;
      Printf.printf "wrote %d records to %s\n" (List.length selected) path
    | None ->
      List.iter
        (fun (r : Kaskade_obs.Qlog.record) ->
          Printf.printf "%4d  %-36s %8d rows  %9.3fms  %s\n" r.Kaskade_obs.Qlog.seq
            (outcome_label r) r.Kaskade_obs.Qlog.rows
            (r.Kaskade_obs.Qlog.seconds *. 1000.0)
            r.Kaskade_obs.Qlog.query)
        selected);
    (match slow with
    | Some ms ->
      Printf.printf "slow filter: %d of %d records >= %.1fms\n" (List.length selected)
        (List.length all) ms
    | None -> ());
    (if out = Some "-" then prerr_endline else print_endline) (Kaskade_obs.Qlog.summary ());
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:
         "Run a workload through the view-based engine and show (or save as JSONL) the \
          structured query log: per query the routing outcome, rows, wall time and plan \
          fingerprint.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ queries_arg $ repeat_arg $ budget_arg $ no_views $ capacity $ out $ slow
          $ metrics_arg)

let trace_cmd =
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Write the capture as Chrome trace-event JSON to FILE ($(b,-) for stdout); \
                 open in chrome://tracing or Perfetto. Without it the span tree prints as \
                 text.")
  in
  let run verbose name edges seed graph_file queries repeat budget chrome =
    setup_logs verbose;
    let qs = require_queries "trace" queries in
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let (), spans =
      Kaskade_obs.Trace.collect (fun () ->
          let sel = Kaskade.select_views ks ~queries:qs ~budget_edges:budget in
          ignore (Kaskade.materialize_selected ks sel);
          run_workload ks qs repeat)
    in
    match chrome with
    | Some "-" -> print_endline (Kaskade_obs.Trace_export.to_chrome_string spans)
    | Some path ->
      let oc = open_out path in
      output_string oc (Kaskade_obs.Trace_export.to_chrome_string spans);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %d top-level spans to %s\n" (List.length spans) path
    | None ->
      List.iter (fun s -> Format.printf "%a" Kaskade_obs.Trace.pp s) spans
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Capture a span trace of selection, materialization and query execution — \
          including per-domain pool chunks — and export it for timeline viewers.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ queries_arg $ repeat_arg $ budget_arg $ chrome)

let advise_cmd =
  let log_file =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Replay a JSONL query log (from $(b,kaskade_cli log --out)) instead of \
                 running -q queries in-process.")
  in
  let advise_budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"EDGES"
           ~doc:"View budget for the replayed selection (default: the graph's edge count).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the advice as JSON instead of text.")
  in
  let run verbose name edges seed graph_file queries repeat log_file advise_budget json =
    setup_logs verbose;
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    let records =
      match log_file with
      | Some path -> begin
        match Kaskade_obs.Qlog.load path with
        | Ok rs -> Some rs
        | Error e ->
          Printf.eprintf "kaskade_cli advise: %s\n" e;
          exit 1
      end
      | None ->
        (* Synthesize the log by running the workload cold (no views
           materialized) — the advisor then reports what to add. *)
        let qs = require_queries "advise" queries in
        Kaskade_obs.Qlog.clear ();
        run_workload ks qs repeat;
        None
    in
    let a = Kaskade.Advisor.advise ?budget_edges:advise_budget ?records ks in
    if json then
      print_endline (Kaskade_obs.Report.to_string ~pretty:true (Kaskade.Advisor.to_json a))
    else Format.printf "@[<v>%a@]@." Kaskade.Advisor.pp a
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Replay an observed workload (the in-process query log or a saved JSONL capture) \
          through view enumeration + knapsack selection and recommend which materialized \
          views to add, keep or drop, with a cost-model calibration table.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ queries_arg $ repeat_arg $ log_file $ advise_budget $ json)

let serve_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix domain socket to listen on (an existing file is replaced).")
  in
  let max_sessions =
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Live session cap; OPEN beyond it is shed with a typed overloaded error.")
  in
  let max_inflight =
    Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Queries executing concurrently; excess requests wait in the admission queue.")
  in
  let max_queue =
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission queue depth; requests beyond it are shed with a typed \
                 overloaded error (counted by the kaskade.shed_requests metric).")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline-s" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline budget, covering queue wait plus execution.")
  in
  let sample_every =
    Arg.(value & opt float 1.0 & info [ "sample-every-s" ] ~docv:"SECONDS"
           ~doc:"Time-series sampler interval (counter deltas, gauge levels, histogram \
                 quantiles into a bounded ring the HEALTH verb reads).")
  in
  let timeseries_out =
    Arg.(value & opt (some string) None & info [ "timeseries" ] ~docv:"FILE"
           ~doc:"After shutdown, dump the sampler ring as JSONL to FILE.")
  in
  let run verbose name edges seed graph_file query budget data_dir fsync snapshot_every
      max_sessions max_inflight max_queue deadline sample_every timeseries_out socket metrics =
    setup_logs verbose;
    let g = load_or_generate graph_file name edges seed in
    let ks =
      Kaskade.make
        ~config:
          { Kaskade.Config.default with data_dir; fsync_policy = fsync; snapshot_every }
        g
    in
    (match query with
    | Some qs -> ignore (select_and_materialize ks (parse_or_die qs) budget)
    | None -> ());
    Printf.printf "serving %d vertices / %d edges on %s (max-sessions %d, max-inflight %d, \
                   max-queue %d)\n%!"
      (Graph.n_vertices g) (Graph.n_edges g) socket max_sessions max_inflight max_queue;
    let srv =
      Kaskade_serve.Server.create ~max_sessions ~max_inflight ~max_queue
        ?deadline_s:deadline ~sample_every_s:sample_every ~socket ks
    in
    Kaskade_serve.Server.run srv;
    (match timeseries_out with
    | Some path ->
      Kaskade_obs.Timeseries.save (Kaskade_serve.Server.timeseries srv) path;
      Printf.printf "wrote %d time-series points to %s\n"
        (Kaskade_obs.Timeseries.length (Kaskade_serve.Server.timeseries srv))
        path
    | None -> ());
    dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over a Unix socket: newline-delimited protocol (OPEN / Q / ROWS / \
          REPIN / UPDATE / STATS / HEALTH / METRICS / CLOSE / SHUTDOWN), one MVCC-pinned \
          session per connection, single-writer update serialization, and admission \
          control with typed shed responses. With --data-dir every UPDATE batch is \
          write-ahead logged before it applies.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg
          $ query_opt_arg $ budget_arg $ data_dir_arg $ fsync_arg $ snapshot_every_arg
          $ max_sessions $ max_inflight $ max_queue $ deadline $ sample_every
          $ timeseries_out $ socket $ metrics_arg)

(* Live-server inspection: both commands speak the wire protocol as an
   ordinary client, so they work against any running [serve]. *)

let client_socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix socket of a running $(b,kaskade_cli serve).")

let field kvs k = Option.value ~default:"-" (List.assoc_opt k kvs)

let health_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw response fields as JSON.")
  in
  let run verbose socket json =
    setup_logs verbose;
    let c = Kaskade_serve.Client.connect socket in
    let health = Kaskade_serve.Client.status (Kaskade_serve.Client.request c "HEALTH") in
    let stats = Kaskade_serve.Client.status (Kaskade_serve.Client.request c "STATS") in
    Kaskade_serve.Client.close c;
    if json then
      print_endline
        (Kaskade_obs.Report.to_string ~pretty:true
           (Kaskade_obs.Report.Obj
              (List.map
                 (fun (k, v) -> (k, Kaskade_obs.Report.Str v))
                 (List.filter (fun (k, _) -> k <> "_status") (health @ stats)))))
    else begin
      let reasons = field health "reasons" in
      Printf.printf "status: %s%s\n" (field health "status")
        (if reasons = "" || reasons = "-" then "" else "  (" ^ reasons ^ ")");
      Printf.printf "sessions %s  queue_depth %s  shed %s  shed_rate %s\n"
        (field health "sessions") (field health "queue_depth") (field stats "shed")
        (field health "shed_rate");
      Printf.printf "views: stale %s  breakers_open %s\n" (field health "stale_views")
        (field health "breakers_open");
      if List.mem_assoc "wal_seq" stats then
        Printf.printf "store: wal_seq %s  snapshot_seq %s  lag %s  wal_bytes %s\n"
          (field stats "wal_seq") (field stats "snapshot_seq") (field health "wal_lag")
          (field stats "wal_bytes");
      if List.mem_assoc "qps" health then
        Printf.printf "window: qps %s  queue_wait_p95 %ss\n" (field health "qps")
          (field health "queue_wait_p95")
    end;
    (* Scriptable verdict: ok 0, degraded 1, unhealthy 2. *)
    match field health "status" with
    | "ok" -> ()
    | "degraded" -> exit 1
    | _ -> exit 2
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "One-shot health probe of a running server (HEALTH + STATS over the socket): \
          typed status with reasons, admission/store/view gauges. Exits 0 when ok, 1 \
          when degraded, 2 when unhealthy.")
    Term.(const run $ verbose_arg $ client_socket_arg $ json)

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh period.")
  in
  let count =
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N"
           ~doc:"Stop after N refreshes (0: run until interrupted or the server goes away).")
  in
  let run verbose socket interval count =
    setup_logs verbose;
    let c = Kaskade_serve.Client.connect socket in
    let interval = Stdlib.max 0.05 interval in
    let clear = Unix.isatty Unix.stdout in
    let tick i =
      let health = Kaskade_serve.Client.status (Kaskade_serve.Client.request c "HEALTH") in
      let stats = Kaskade_serve.Client.status (Kaskade_serve.Client.request c "STATS") in
      if clear then print_string "\027[2J\027[H";
      let now = Unix.localtime (Unix.gettimeofday ()) in
      Printf.printf "kaskade top — %s  refresh %.1fs  #%d  %02d:%02d:%02d\n" socket interval
        i now.Unix.tm_hour now.Unix.tm_min now.Unix.tm_sec;
      let reasons = field health "reasons" in
      Printf.printf "health   %s%s\n" (field health "status")
        (if reasons = "" || reasons = "-" then "" else "  (" ^ reasons ^ ")");
      Printf.printf "serve    sessions %s  queue_depth %s  shed %s  version %s\n"
        (field stats "sessions") (field stats "queue_depth") (field stats "shed")
        (field stats "version");
      if List.mem_assoc "qps" health then
        Printf.printf "window   qps %s  queue_wait_p95 %ss  shed_rate %s\n"
          (field health "qps") (field health "queue_wait_p95") (field health "shed_rate");
      Printf.printf "views    stale %s  breakers_open %s\n" (field health "stale_views")
        (field health "breakers_open");
      if List.mem_assoc "wal_seq" stats then
        Printf.printf "store    wal_seq %s  snapshot_seq %s  lag %s  wal_bytes %s\n"
          (field stats "wal_seq") (field stats "snapshot_seq") (field health "wal_lag")
          (field stats "wal_bytes");
      flush stdout
    in
    let rec loop i =
      tick i;
      if count = 0 || i < count then begin
        Unix.sleepf interval;
        loop (i + 1)
      end
    in
    (try loop 1 with End_of_file | Unix.Unix_error _ -> prerr_endline "server went away");
    Kaskade_serve.Client.close c
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running server: periodic HEALTH + STATS refresh showing \
          sessions, QPS, queue-wait p95, shed rate, view freshness and WAL growth.")
    Term.(const run $ verbose_arg $ client_socket_arg $ interval $ count)

let repl_cmd =
  let run verbose name edges seed graph_file budget =
    setup_logs verbose;
    let g = load_or_generate graph_file name edges seed in
    let ks = Kaskade.make g in
    Format.printf "%a@." Graph.pp_summary g;
    print_endline "kaskade repl — enter a query per line; :views to list, :quit to exit";
    let rec loop () =
      print_string "kaskade> ";
      match read_line () with
      | exception End_of_file -> ()
      | ":quit" | ":q" -> ()
      | ":views" ->
        List.iter
          (fun (e : Kaskade_views.Catalog.entry) ->
            Printf.printf "  %s (%d edges)\n"
              (Kaskade_views.View.name
                 e.Kaskade_views.Catalog.materialized.Kaskade_views.Materialize.view)
              e.Kaskade_views.Catalog.size_edges)
          (Kaskade_views.Catalog.entries (Kaskade.catalog ks));
        loop ()
      | "" -> loop ()
      | line -> begin
        (try
           let q = Kaskade.parse line in
           (* Opportunistically select + materialize for each new query. *)
           let sel = Kaskade.select_views ks ~queries:[ q ] ~budget_edges:budget in
           ignore (Kaskade.materialize_selected ks sel);
           let t0 = Kaskade_util.Mclock.now_s () in
           match Kaskade.query ks q with
           (* Governed failures (budget exhaustion, refresh crashes,
              injected faults) end the query, not the session. *)
           | Error e -> Printf.printf "%s\n" (Kaskade.Error.to_string e)
           | Ok (result, how) ->
             let dt = Kaskade_util.Mclock.now_s () -. t0 in
             let target_graph =
               match how with
               | Kaskade.Raw -> g
               | Kaskade.Via_view v ->
                 (Option.get (Kaskade_views.Catalog.find_by_name (Kaskade.catalog ks) v))
                   .Kaskade_views.Catalog.materialized.Kaskade_views.Materialize.graph
             in
             (match result with
             | Kaskade_exec.Executor.Table t ->
               Format.printf "%a@." (Kaskade_exec.Row.pp target_graph) t;
               Printf.printf "%d rows" (Kaskade_exec.Row.n_rows t)
             | Kaskade_exec.Executor.Affected n -> Printf.printf "updated %d entities" n);
             Printf.printf " (%.3fs, %s)\n"
               dt
               (match how with Kaskade.Raw -> "raw" | Kaskade.Via_view v -> "via " ^ v)
         with
        | Kaskade_query.Qparser.Parse_error { message; line; col } ->
          Printf.printf "%s\n" (render_parse_error message line col)
        | Kaskade_query.Analyze.Semantic_error msg -> Printf.printf "semantic error: %s\n" msg
        | Invalid_argument msg -> Printf.printf "error: %s\n" msg);
        loop ()
      end
    in
    loop ()
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive query loop with transparent view selection.")
    Term.(const run $ verbose_arg $ dataset_arg $ edges_arg $ seed_arg $ graph_file_arg $ budget_arg)

let () =
  let doc = "Kaskade: graph views for efficient graph analytics (ICDE 2020 reproduction)." in
  let info = Cmd.info "kaskade_cli" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd;
        stats_cmd;
        enumerate_cmd;
        select_cmd;
        run_cmd;
        explain_cmd;
        update_cmd;
        refresh_cmd;
        snapshot_cmd;
        recover_cmd;
        log_cmd;
        trace_cmd;
        advise_cmd;
        serve_cmd;
        health_cmd;
        top_cmd;
        repl_cmd;
      ]
  in
  (* Governed failures (budget exhaustion, refresh crashes, I/O and
     injected faults) exit 1 with a one-line typed message instead of
     cmdliner's internal-error backtrace; truly unexpected exceptions
     still crash loudly. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e -> begin
    match Kaskade.Error.of_exn e with
    | Some err ->
      Printf.eprintf "kaskade_cli: %s\n" (Kaskade.Error.to_string err);
      exit 1
    | None -> raise e
  end
