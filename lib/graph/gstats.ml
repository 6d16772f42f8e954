open Kaskade_util

type type_summary = {
  type_name : string;
  count : int;
  deg50 : int;
  deg90 : int;
  deg95 : int;
  deg100 : int;
  is_source : bool;
}

type t = {
  n : int;
  m : int;
  sorted_by_type : int array array;  (* vtype -> ascending out-degrees *)
  sorted_global : int array;
  summaries : type_summary array;
  sources : int list;
  etype_counts : int array;
}

let nearest_rank sorted alpha =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (alpha /. 100.0 *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let compute ?pool g =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let schema = Graph.schema g in
  let ntypes = Schema.n_vertex_types schema in
  (* Per-type degree gather + sort is independent per vertex type, so
     the sweeps fan out over the pool; morsel results concatenate in
     type order, keeping the output identical at any width. *)
  let sorted_by_type =
    Array.concat
      (Array.to_list
         (Pool.map_morsels pool ~n:ntypes (fun ~lo ~hi ->
              Array.init (hi - lo) (fun j ->
                  let degs = Graph.out_degrees_of_type g (lo + j) in
                  Array.sort compare degs;
                  degs))))
  in
  let sorted_global = Graph.all_out_degrees g in
  Array.sort compare sorted_global;
  (* Edge-type histogram: per-morsel count arrays over edge-id ranges,
     summed on the main domain. *)
  let nets = Schema.n_edge_types schema in
  let etype_counts = Array.make nets 0 in
  Array.iter
    (fun partial -> Array.iteri (fun t c -> etype_counts.(t) <- etype_counts.(t) + c) partial)
    (Pool.map_morsels pool ~n:(Graph.n_edges g) (fun ~lo ~hi ->
         let counts = Array.make nets 0 in
         for e = lo to hi - 1 do
           let t = Graph.edge_type g e in
           counts.(t) <- counts.(t) + 1
         done;
         counts));
  let summaries =
    Array.init ntypes (fun ty ->
        let sorted = sorted_by_type.(ty) in
        {
          type_name = Schema.vertex_type_name schema ty;
          count = Array.length sorted;
          deg50 = nearest_rank sorted 50.0;
          deg90 = nearest_rank sorted 90.0;
          deg95 = nearest_rank sorted 95.0;
          deg100 = nearest_rank sorted 100.0;
          is_source = Schema.edge_types_from schema ty <> [];
        })
  in
  let sources =
    List.filter (fun ty -> summaries.(ty).is_source) (List.init ntypes (fun i -> i))
  in
  {
    n = Graph.n_vertices g;
    m = Graph.n_edges g;
    sorted_by_type;
    sorted_global;
    summaries;
    sources;
    etype_counts;
  }

let total_vertices t = t.n
let total_edges t = t.m
let summaries t = Array.to_list t.summaries
let summary_of_type t ty = t.summaries.(ty)

let out_degree_percentile t ~vtype ~alpha =
  if alpha <= 0.0 || alpha > 100.0 then invalid_arg "Gstats: alpha out of (0, 100]";
  nearest_rank t.sorted_by_type.(vtype) alpha

let global_out_degree_percentile t ~alpha =
  if alpha <= 0.0 || alpha > 100.0 then invalid_arg "Gstats: alpha out of (0, 100]";
  nearest_rank t.sorted_global alpha

let mean_of a =
  let n = Array.length a in
  if n = 0 then 0.0 else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n

let out_degree_mean t ~vtype = mean_of t.sorted_by_type.(vtype)

let size_biased_of a =
  let sum = Array.fold_left ( + ) 0 a in
  if sum = 0 then 0.0
  else begin
    let sum_sq = Array.fold_left (fun acc d -> acc +. (float_of_int d *. float_of_int d)) 0.0 a in
    sum_sq /. float_of_int sum
  end

let out_degree_size_biased t ~vtype = size_biased_of t.sorted_by_type.(vtype)
let global_out_degree_size_biased t = size_biased_of t.sorted_global

let edge_type_count t ~etype = t.etype_counts.(etype)

let out_degree_mean_for_etypes t ~vtype ~etypes =
  let n = Array.length t.sorted_by_type.(vtype) in
  if n = 0 then 0.0
  else begin
    let total = List.fold_left (fun acc et -> acc + t.etype_counts.(et)) 0 etypes in
    float_of_int total /. float_of_int n
  end
let global_out_degree_mean t = mean_of t.sorted_global

let source_types t = t.sources

let pp ppf t =
  Format.fprintf ppf "@[<v>|V|=%s |E|=%s@," (Table.fmt_int t.n) (Table.fmt_int t.m);
  Array.iter
    (fun s ->
      Format.fprintf ppf "  %-12s n=%-10s deg50=%d deg90=%d deg95=%d deg100=%d%s@," s.type_name
        (Table.fmt_int s.count) s.deg50 s.deg90 s.deg95 s.deg100
        (if s.is_source then "" else " (sink-only)"))
    t.summaries;
  Format.fprintf ppf "@]"
