(* The homogeneous-network counterpoint from the paper (§VII-D/F): on
   a road-network-like graph, 2-hop connectors are *larger* than the
   raw graph, the size estimator predicts it, the knapsack refuses to
   materialize them under any sane budget, and a 2-hop contraction of
   an odd-hop query would be unsound (Kaskade's rewriter refuses).

     dune exec examples/road_reachability.exe *)

open Kaskade_graph

let () =
  let g = Kaskade_gen.Road_gen.(generate { default with width = 60; height = 60; seed = 31 }) in
  Format.printf "road network: %a@." Graph.pp_summary g;
  let ks = Kaskade.make g in
  let stats = Kaskade.stats ks in

  (* The size estimator (Eq. 2) sees the blow-up before paying for
     materialization. *)
  let est = Kaskade.Estimator.estimate_paths stats ~k:2 ~alpha:95.0 in
  let actual = Kaskade_graph.Paths.count_k_walks g ~k:2 in
  Printf.printf "\n2-hop connector size: estimated %.0f, actual %.0f, raw |E| = %d\n" est actual
    (Graph.n_edges g);
  Printf.printf "connector %s the raw graph (paper: homogeneous connectors usually exceed it)\n"
    (if est > float_of_int (Graph.n_edges g) then "EXCEEDS" else "is below");

  (* Reachability workload: 1..4 hops includes odd hop counts, which a
     2-hop connector cannot cover; the rewriter must refuse. *)
  let q = Kaskade.parse "MATCH (s:V)-[r*1..4]->(n:V) RETURN s, n" in
  let conn =
    Kaskade_views.View.Connector (Kaskade_views.View.K_hop { src_type = "V"; dst_type = "V"; k = 2 })
  in
  (match Kaskade.Rewrite.rewrite (Kaskade.schema ks) q conn with
  | None -> print_endline "\nrewrite of *1..4 over the 2-hop connector: refused (odd hops uncovered) -- correct"
  | Some _ -> print_endline "\nBUG: unsound rewrite accepted");

  (* An exactly-2-hop query is coverable (note even *2..4 would not
     be: it contains 3-hop paths, which exist on homogeneous schemas). *)
  let q_even = Kaskade.parse "MATCH (s:V)-[r*2..2]->(n:V) RETURN s, n" in
  (match Kaskade.Rewrite.rewrite (Kaskade.schema ks) q_even conn with
  | Some rw ->
    Printf.printf "rewrite of *2..2: %s\n" (Kaskade_query.Pretty.to_string rw.Kaskade.Rewrite.rewritten)
  | None -> print_endline "BUG: exact-2-hop rewrite refused");

  (* Selection under a budget proportional to the graph: the connector
     does not fit / does not pay off. *)
  let sel = Kaskade.select_views ks ~queries:[ q_even ] ~budget_edges:(Graph.n_edges g) in
  Printf.printf "\nselection under a |E| budget: %s\n"
    (match sel.Kaskade.Selection.chosen with
    | [] -> "no view materialized (connector too large) -- matches the paper"
    | vs -> String.concat ", " (List.map Kaskade_views.View.name vs));

  (* Plain reachability still works on the raw graph. *)
  let t =
    let q_count = Kaskade.parse "SELECT COUNT(*) FROM (MATCH (s:V)-[r*1..4]->(n:V) RETURN s, n)" in
    match Kaskade.query ~target:Kaskade.Base ks q_count with
    | Ok (result, _) -> Kaskade_exec.Executor.table_exn result
    | Error e -> failwith (Kaskade.Error.to_string e)
  in
  match t.Kaskade_exec.Row.rows with
  | [ [| Kaskade_exec.Row.Prim (Value.Int n) |] ] ->
    Printf.printf "\nvertex pairs within 4 hops (raw evaluation): %d\n" n
  | _ -> ()
