open Kaskade_graph
module Budget = Kaskade_util.Budget
module Pool = Kaskade_util.Pool
module Scratch = Kaskade_util.Scratch
module Int_vec = Kaskade_util.Int_vec

type materialized = {
  view : View.t;
  graph : Graph.t;
  new_of_old : int array;
  build_cost : float;
}

(* --------------------------------------------------------------- *)
(* Connectors                                                        *)

(* Vertices of the endpoint types, copied into a fresh builder. *)
let endpoint_builder g types edge_decls =
  let uniq = List.sort_uniq compare types in
  let schema = Schema.define ~vertices:uniq ~edges:edge_decls in
  let b = Builder.create schema in
  let new_of_old = Array.make (Graph.n_vertices g) (-1) in
  List.iter
    (fun tname ->
      Array.iter
        (fun v ->
          let id = Builder.add_vertex b ~vtype:tname ~props:(Graph.vertex_props g v) () in
          new_of_old.(v) <- id)
        (Graph.vertices_of_type_name g tname))
    uniq;
  (b, new_of_old)

(* --------------------------------------------------------------- *)
(* Deterministic parallel per-source fan-out.

   Each connector materialization is "for every source vertex, run a
   traversal and add the edges it finds". The traversals are
   independent, so they fan out over a [Pool] as work-stealing
   morsels: each morsel of the source array fills its own (src, dst,
   payload) triple buffer on whichever domain claimed it, and the main
   domain replays the buffers into the builder in morsel order. A
   per-source traversal emits in deterministic discovery order, so the
   replayed edge sequence — and therefore the frozen view — is
   byte-identical to a width-1 (sequential) run at any pool width and
   any morsel grain. *)

let resolve_pool = function Some p -> p | None -> Pool.default ()

(* Neighbor-iteration closures for the per-source traversals. *)
let out_iter g v f = Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> f dst)

(* Budget checkpoints are per source traversal: every worker domain
   steps the (shared, racy-but-monotone) budget once per source, so a
   fan-out over many sources notices an expired deadline promptly even
   though a single in-flight traversal runs to completion. The
   traversal's edge-visit cost is charged after the replay. *)
let fan_out_edges ?budget pool ~sources ~per_source ~replay =
  let morsels =
    Pool.map_morsels pool ~n:(Array.length sources) (fun ~lo ~hi ->
        let buf = Int_vec.create () in
        let cost = ref 0 in
        let emit u w payload =
          Int_vec.push buf u;
          Int_vec.push buf w;
          Int_vec.push buf payload
        in
        for i = lo to hi - 1 do
          Budget.step budget Budget.Materialize;
          per_source ~cost sources.(i) emit
        done;
        (buf, !cost))
  in
  let total_cost = ref 0 in
  Array.iter
    (fun (buf, cost) ->
      total_cost := !total_cost + cost;
      let len = Int_vec.length buf in
      let i = ref 0 in
      while !i < len do
        replay (Int_vec.get buf !i) (Int_vec.get buf (!i + 1)) (Int_vec.get buf (!i + 2));
        i := !i + 3
      done)
    morsels;
  !total_cost

(* Exact-k forward reachability with path multiplicities: level sets
   are (scratch set carrying per-vertex path counts, members vector in
   discovery order). *)
let exact_k_reach ~n ~iter ~src ~k ~cost emit =
  Scratch.with_set ~n @@ fun set_a ->
  Scratch.with_set ~n @@ fun set_b ->
  Scratch.with_vec @@ fun vec_a ->
  Scratch.with_vec @@ fun vec_b ->
  let cur_set = ref set_a and cur_vec = ref vec_a in
  let next_set = ref set_b and next_vec = ref vec_b in
  Scratch.set_value !cur_set src 1;
  Int_vec.push !cur_vec src;
  for _ = 1 to k do
    Scratch.clear !next_set;
    Int_vec.clear !next_vec;
    let cs = !cur_set and ns = !next_set and nv = !next_vec in
    Int_vec.iter
      (fun v ->
        let cnt = Scratch.value cs v in
        iter v (fun dst ->
            Stdlib.incr cost;
            if Scratch.mem ns dst then Scratch.set_value ns dst (Scratch.value ns dst + cnt)
            else begin
              Scratch.set_value ns dst cnt;
              Int_vec.push nv dst
            end))
      !cur_vec;
    let ts = !cur_set and tv = !cur_vec in
    cur_set := !next_set;
    cur_vec := !next_vec;
    next_set := ts;
    next_vec := tv
  done;
  let cs = !cur_set in
  Int_vec.iter (fun w -> emit w (Scratch.value cs w)) !cur_vec

let connector_k_hop ?(dedupe = true) ?(with_path_counts = false) ?pool ?budget g
    ~src_type ~dst_type ~k =
  let pool = resolve_pool pool in
  let view = View.Connector (View.K_hop { src_type; dst_type; k }) in
  let edge_name = View.connector_edge_type (View.K_hop { src_type; dst_type; k }) in
  let b, new_of_old =
    endpoint_builder g [ src_type; dst_type ] [ (src_type, edge_name, dst_type) ]
  in
  let dst_ty = Schema.vertex_type_id (Graph.schema g) dst_type in
  let n = Graph.n_vertices g in
  let iter = out_iter g in
  let per_source ~cost u emit =
    exact_k_reach ~n ~iter ~src:u ~k ~cost (fun w cnt ->
        if Graph.vertex_type g w = dst_ty then emit u w cnt)
  in
  let cost =
    fan_out_edges ?budget pool ~sources:(Graph.vertices_of_type_name g src_type) ~per_source
      ~replay:(fun u w cnt ->
        let props = if with_path_counts then [ ("paths", Value.Int cnt) ] else [] in
        if dedupe then
          ignore (Builder.add_edge b ~src:new_of_old.(u) ~dst:new_of_old.(w) ~etype:edge_name ~props ())
        else
          for _ = 1 to cnt do
            ignore (Builder.add_edge b ~src:new_of_old.(u) ~dst:new_of_old.(w) ~etype:edge_name ())
          done)
  in
  { view; graph = Graph.freeze b; new_of_old; build_cost = float_of_int cost }

(* --------------------------------------------------------------- *)
(* Summarizers                                                       *)

let summarize_inclusion g view keep_types =
  let schema = Graph.schema g in
  let restricted = Schema.restrict schema ~keep_vertices:keep_types in
  let keep = Hashtbl.create 8 in
  List.iter
    (fun tname ->
      match Schema.vertex_type_id schema tname with
      | ty -> Hashtbl.replace keep ty ()
      | exception Not_found -> invalid_arg ("Materialize: unknown vertex type " ^ tname))
    keep_types;
  let sub, mapping =
    Subgraph.restrict ~vertex_pred:(fun v -> Hashtbl.mem keep (Graph.vertex_type g v))
      ~schema:restricted g
  in
  {
    view;
    graph = sub;
    new_of_old = mapping.Subgraph.new_of_old_vertex;
    build_cost = float_of_int (Graph.n_edges g);
  }

let summarize_edge_filter g view keep_edge_types =
  let schema = Graph.schema g in
  let keep = Hashtbl.create 8 in
  List.iter
    (fun ename ->
      match Schema.edge_type_id schema ename with
      | ty -> Hashtbl.replace keep ty ()
      | exception Not_found -> invalid_arg ("Materialize: unknown edge type " ^ ename))
    keep_edge_types;
  let new_schema =
    Schema.define
      ~vertices:(Schema.vertex_types schema)
      ~edges:
        (List.filter_map
           (fun (d : Schema.edge_def) ->
             if Hashtbl.mem keep (Schema.edge_type_id schema d.name) then Some (d.src, d.name, d.dst)
             else None)
           (Schema.edge_defs schema))
  in
  let sub, mapping =
    Subgraph.restrict ~edge_pred:(fun ~eid:_ ~src:_ ~dst:_ ~etype -> Hashtbl.mem keep etype)
      ~schema:new_schema g
  in
  {
    view;
    graph = sub;
    new_of_old = mapping.Subgraph.new_of_old_vertex;
    build_cost = float_of_int (Graph.n_edges g);
  }

let complement_vertex_types schema drop =
  List.filter (fun t -> not (List.mem t drop)) (Schema.vertex_types schema)

let complement_edge_types schema drop =
  List.filter_map
    (fun (d : Schema.edge_def) -> if List.mem d.name drop then None else Some d.name)
    (Schema.edge_defs schema)

(* --------------------------------------------------------------- *)

let m_materializations =
  Kaskade_obs.Metrics.counter ~help:"Views materialized" "views.materialized"

let m_materialized_edges =
  Kaskade_obs.Metrics.counter ~help:"Edges across all materialized views" "views.materialized_edges"

let materialize ?(dedupe = true) ?(with_path_counts = false) ?pool ?budget g view =
  Kaskade_obs.Trace.with_span "materialize" ~attrs:[ ("view", View.name view) ]
  @@ fun () ->
  Budget.check budget Budget.Materialize;
  Budget.fault_point Budget.Materialize ~site:"materialize";
  let m =
    match view with
    | View.Connector (View.K_hop { src_type; dst_type; k }) ->
      connector_k_hop ~dedupe ~with_path_counts ?pool ?budget g ~src_type ~dst_type ~k
    | View.Summarizer (View.Vertex_inclusion types) -> summarize_inclusion g view types
    | View.Summarizer (View.Vertex_removal types) ->
      summarize_inclusion g view (complement_vertex_types (Graph.schema g) types)
    | View.Summarizer (View.Edge_inclusion types) -> summarize_edge_filter g view types
    | View.Summarizer (View.Edge_removal types) ->
      summarize_edge_filter g view (complement_edge_types (Graph.schema g) types)
  in
  (* Summarizers do their work in one structural pass; charge it as a
     lump so a step-capped budget still observes their cost. *)
  (match view with
  | View.Summarizer _ -> Budget.step ~cost:(int_of_float m.build_cost) budget Budget.Materialize
  | View.Connector _ -> ());
  Kaskade_obs.Metrics.incr m_materializations;
  Kaskade_obs.Metrics.incr ~by:(Graph.n_edges m.graph) m_materialized_edges;
  m

let k_hop_connector ?dedupe ?with_path_counts ?pool ?budget g ~src_type ~dst_type ~k =
  materialize ?dedupe ?with_path_counts ?pool ?budget g
    (View.Connector (View.K_hop { src_type; dst_type; k }))
