open Kaskade_graph
open Kaskade_views
open Kaskade_exec
module Metrics = Kaskade_obs.Metrics
module Trace = Kaskade_obs.Trace

let m_runs = Metrics.counter ~help:"View selections performed" "selection.runs"

let m_candidates =
  Metrics.counter ~help:"Candidate views priced by the selector" "selection.candidates"

let m_chosen = Metrics.counter ~help:"Views chosen by the knapsack" "selection.chosen"

type solver = Branch_and_bound | Dp | Greedy

type candidate_report = {
  view : View.t;
  est_size : float;
  creation_cost : float;
  improvement : float;
  value : float;
  applicable_queries : int list;
  chosen : bool;
}

type t = {
  reports : candidate_report list;
  chosen : View.t list;
  budget_edges : int;
  total_weight : int;
  total_value : float;
}

(* Branching-factor override pricing a query over a not-yet-
   materialized view (see Cost.estimate). *)
let override_for stats schema ~alpha (view : View.t) =
  match view with
  | View.Connector (View.K_hop { src_type; dst_type; k }) ->
    let est = Estimator.typed_chain stats schema ~src_type ~dst_type ~k ~alpha:50.0 in
    let n_src =
      match Schema.vertex_type_id schema src_type with
      | ty -> float_of_int (Gstats.summary_of_type stats ty).count
      | exception Not_found -> 1.0
    in
    let conn_deg = if n_src > 0.0 then est /. n_src else est in
    fun label -> if String.equal label src_type then Some (Stdlib.max conn_deg 0.01) else None
  | View.Summarizer (View.Vertex_inclusion keep) ->
    let restricted = Schema.restrict schema ~keep_vertices:keep in
    let kept_edges =
      List.filter_map
        (fun (d : Schema.edge_def) ->
          match Schema.edge_type_id schema d.name with
          | et -> Some (d.src, et)
          | exception Not_found -> None)
        (Schema.edge_defs restricted)
    in
    fun label -> begin
      match Schema.vertex_type_id schema label with
      | ty ->
        let etypes = List.filter_map (fun (src, et) -> if src = label then Some et else None) kept_edges in
        Some (Stdlib.max (Gstats.out_degree_mean_for_etypes stats ~vtype:ty ~etypes) 0.01)
      | exception Not_found -> None
    end
  | _ ->
    let _ = alpha in
    fun _ -> None

let select ?(alpha = 95.0) ?(solver = Branch_and_bound) ?query_weights stats
    schema ~queries ~budget_edges =
  Trace.with_span "selection"
    ~attrs:
      [ ("queries", string_of_int (List.length queries));
        ("budget_edges", string_of_int budget_edges) ]
  @@ fun () ->
  let weights =
    match query_weights with
    | Some ws when List.length ws = List.length queries -> ws
    | Some _ -> invalid_arg "Selection.select: query_weights length mismatch"
    | None -> List.map (fun _ -> 1.0) queries
  in
  let raw_costs = List.map (fun q -> Cost.eval_cost stats schema q) queries in
  (* Candidate views across the workload, deduplicated. *)
  let seen = Hashtbl.create 16 in
  let candidates = ref [] in
  List.iter
    (fun q ->
      List.iter
        (fun (c : Enumerate.candidate) ->
          let key = View.name c.view in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            candidates := c.view :: !candidates
          end)
        (Enumerate.enumerate schema q).Enumerate.candidates)
    queries;
  let candidates = List.rev !candidates in
  (* Per-candidate improvement over the workload. *)
  let reports =
    List.map
      (fun view ->
        let est_size = Estimator.view_size stats schema ~alpha view in
        let creation_cost = Stdlib.max (Estimator.creation_cost stats schema ~alpha view) 1.0 in
        let deg_override = override_for stats schema ~alpha view in
        let improvement = ref 0.0 in
        let applicable = ref [] in
        List.iteri
          (fun i q ->
            match Rewrite.rewrite schema q view with
            | Some rw ->
              let raw = List.nth raw_costs i in
              let rewritten_cost =
                Stdlib.max (Cost.eval_cost ~deg_override stats schema rw.Rewrite.rewritten) 1.0
              in
              let w = List.nth weights i in
              if raw > rewritten_cost then begin
                improvement := !improvement +. (w *. (raw /. rewritten_cost));
                applicable := i :: !applicable
              end
            | None -> ())
          queries;
        let value = !improvement /. creation_cost in
        {
          view;
          est_size;
          creation_cost;
          improvement = !improvement;
          value;
          applicable_queries = List.rev !applicable;
          chosen = false;
        })
      candidates
  in
  (* Knapsack over candidates with positive value. *)
  let items =
    List.mapi
      (fun id r ->
        { Kaskade_knapsack.Knapsack.id; weight = int_of_float (Stdlib.min r.est_size 1e15); value = r.value })
      reports
  in
  let solution =
    Trace.with_span "knapsack" ~attrs:[ ("items", string_of_int (List.length items)) ]
    @@ fun () ->
    match solver with
    | Branch_and_bound -> Kaskade_knapsack.Knapsack.solve_branch_and_bound ~capacity:budget_edges items
    | Dp -> Kaskade_knapsack.Knapsack.solve_dp ~capacity:budget_edges items
    | Greedy -> Kaskade_knapsack.Knapsack.solve_greedy ~capacity:budget_edges items
  in
  let chosen_ids = solution.Kaskade_knapsack.Knapsack.chosen in
  let reports =
    List.mapi (fun id (r : candidate_report) -> { r with chosen = List.mem id chosen_ids }) reports
    |> List.sort (fun a b -> compare b.value a.value)
  in
  let result =
    {
      reports;
      chosen =
        List.filter_map
          (fun (r : candidate_report) -> if r.chosen then Some r.view else None)
        reports;
      budget_edges;
      total_weight = solution.Kaskade_knapsack.Knapsack.total_weight;
      total_value = solution.Kaskade_knapsack.Knapsack.total_value;
    }
  in
  Metrics.incr m_runs;
  Metrics.incr ~by:(List.length result.reports) m_candidates;
  Metrics.incr ~by:(List.length result.chosen) m_chosen;
  Trace.add_attr "chosen" (String.concat " " (List.map View.name result.chosen));
  Trace.add_attr "total_weight" (string_of_int result.total_weight);
  result
