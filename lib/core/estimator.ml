open Kaskade_graph
open Kaskade_views

(* ln C(n, r) for modest r. *)
let log_binomial n r =
  if r < 0 || r > n then neg_infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to r - 1 do
      acc := !acc +. log (float_of_int (n - i)) -. log (float_of_int (i + 1))
    done;
    !acc
  end

let erdos_renyi ~n ~m ~k =
  if n < k + 1 || m <= 0 || n < 2 then 0.0
  else begin
    let log_pairs = log_binomial n 2 in
    let log_p = log (float_of_int m) -. log_pairs in
    exp (log_binomial n (k + 1) +. (float_of_int k *. log_p))
  end

let homogeneous stats ~k ~alpha =
  let n = float_of_int (Gstats.total_vertices stats) in
  let deg = float_of_int (Gstats.global_out_degree_percentile stats ~alpha) in
  n *. (deg ** float_of_int k)

let heterogeneous stats ~k ~alpha =
  List.fold_left
    (fun acc ty ->
      let s = Gstats.summary_of_type stats ty in
      let deg = float_of_int (Gstats.out_degree_percentile stats ~vtype:ty ~alpha) in
      acc +. (float_of_int s.count *. (deg ** float_of_int k)))
    0.0
    (Gstats.source_types stats)

let estimate_paths stats ~k ~alpha =
  match Gstats.source_types stats with
  | [ _ ] when List.length (Gstats.summaries stats) = 1 -> homogeneous stats ~k ~alpha
  | _ -> heterogeneous stats ~k ~alpha

let typed_chain stats schema ~src_type ~dst_type ~k ~alpha =
  match (Schema.vertex_type_id schema src_type, Schema.vertex_type_id schema dst_type) with
  | exception Not_found -> 0.0
  | src_ty, dst_ty ->
    let n_src = float_of_int (Gstats.summary_of_type stats src_ty).count in
    let deg ty = float_of_int (Gstats.out_degree_percentile stats ~vtype:ty ~alpha) in
    (* Sum of per-path degree products over all k-step type paths. *)
    let rec walk ty remaining =
      if remaining = 0 then if ty = dst_ty then 1.0 else 0.0
      else
        List.fold_left
          (fun acc et -> acc +. (deg ty *. walk (Schema.edge_dst schema et) (remaining - 1)))
          0.0
          (Schema.edge_types_from schema ty)
    in
    n_src *. walk src_ty k

let connector_size stats schema ~alpha (View.K_hop { src_type; dst_type; k }) =
  typed_chain stats schema ~src_type ~dst_type ~k ~alpha

let rec summarizer_size stats schema = function
  | View.Vertex_inclusion keep ->
    (* Edges survive when both endpoint types are kept: approximate by
       the sum of out-edges of kept source types whose targets are all
       kept (schema-level check). *)
    let kept ty_name = List.mem ty_name keep in
    List.fold_left
      (fun acc (d : Schema.edge_def) ->
        if kept d.src && kept d.dst then begin
          let ty = Schema.vertex_type_id schema d.src in
          let s = Gstats.summary_of_type stats ty in
          acc +. (float_of_int s.count *. Gstats.out_degree_mean stats ~vtype:ty)
        end
        else acc)
      0.0 (Schema.edge_defs schema)
  | View.Vertex_removal drop ->
    let keep = List.filter (fun t -> not (List.mem t drop)) (Schema.vertex_types schema) in
    summarizer_size_aux stats schema keep
  | View.Edge_inclusion _ | View.Edge_removal _ ->
    (* Bounded by the graph's edge count. *)
    float_of_int (Gstats.total_edges stats)

and summarizer_size_aux stats schema keep =
  summarizer_size stats schema (View.Vertex_inclusion keep)

let view_size stats schema ~alpha = function
  | View.Connector c -> connector_size stats schema ~alpha c
  | View.Summarizer s -> summarizer_size stats schema s

let creation_cost stats schema ~alpha = function
  | View.Connector c -> connector_size stats schema ~alpha c
  | View.Summarizer _ ->
    (* One scan of the raw graph. *)
    float_of_int (Gstats.total_vertices stats + Gstats.total_edges stats)
