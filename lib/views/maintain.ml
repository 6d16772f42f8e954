open Kaskade_graph
module Budget = Kaskade_util.Budget
module Scratch = Kaskade_util.Scratch
module Int_vec = Kaskade_util.Int_vec
module Overlay = Graph.Overlay

type delta = { added : (int * int) list; removed : (int * int) list }

type strategy =
  | Connector_delta of delta
  | Filter_delta of { kept_inserts : int; kept_deletes : int }
  | Full_rebuild of { reason : string }

let incremental = function Full_rebuild _ -> false | _ -> true

let describe_strategy = function
  | Connector_delta d ->
    Printf.sprintf "delta(+%d/-%d pairs)" (List.length d.added) (List.length d.removed)
  | Filter_delta { kept_inserts; kept_deletes } ->
    Printf.sprintf "delta(+%d/-%d edges)" kept_inserts kept_deletes
  | Full_rebuild { reason } -> "rebuild: " ^ reason

(* --------------------------------------------------------------- *)
(* Shared plumbing                                                   *)

(* Inverse of a connector/filter [new_of_old] (a bijection on the
   vertices the view keeps). *)
let old_of_new vg new_of_old =
  let arr = Array.make (Graph.n_vertices vg) (-1) in
  Array.iteri (fun old_v nv -> if nv >= 0 then arr.(nv) <- old_v) new_of_old;
  arr

(* The edge mutations of a batch, in order. Insert_vertex ops carry no
   edges; new vertices are discovered by comparing [base_after]'s
   vertex count against the view's mapping length. *)
let edge_ops ops =
  List.filter_map
    (function
      | Overlay.Insert_edge { src; dst; etype; props } -> Some (src, dst, etype, props, true)
      | Overlay.Delete_edge { src; dst; etype } -> Some (src, dst, etype, [], false)
      | Overlay.Insert_vertex _ -> None)
    ops

(* In-adjacency of the batch's deleted edges — the part of the *old*
   graph missing from [base_after]. Traversals that must see paths
   from either side of the update run on the union: [base_after]
   plus these. *)
let deleted_in_adjacency ops =
  let bwd : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, _, _, is_insert) ->
      if not is_insert then
        Hashtbl.replace bwd dst
          (src :: (match Hashtbl.find_opt bwd dst with Some l -> l | None -> [])))
    (edge_ops ops);
  bwd

(* Bounded multi-source BFS over a caller-supplied neighbour
   function; returns the visited table (seeds included, depth 0). *)
let bounded_bfs ~neighbors ~seeds ~depth =
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let frontier = ref [] in
  List.iter
    (fun v ->
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.add visited v ();
        frontier := v :: !frontier
      end)
    seeds;
  for _ = 1 to depth do
    let next = ref [] in
    List.iter
      (fun v ->
        neighbors v (fun w ->
            if not (Hashtbl.mem visited w) then begin
              Hashtbl.add visited w ();
              next := w :: !next
            end))
      !frontier;
    frontier := !next
  done;
  visited

(* --------------------------------------------------------------- *)
(* K-hop connectors                                                  *)

let khop_of_view (view : Materialize.materialized) =
  match view.Materialize.view with
  | View.Connector (View.K_hop { src_type; dst_type; k }) -> (src_type, dst_type, k)
  | View.Summarizer _ as v ->
    invalid_arg ("Maintain.connector_delta: not a k-hop connector: " ^ View.name v)

(* Set-semantics exact-k forward reach (the deduped form of
   [Materialize]'s path-counting level walk): calls [f] once per
   vertex reachable by some path of exactly [k] edges. *)
let exact_k_targets g ~src ~k f =
  let n = Graph.n_vertices g in
  Scratch.with_set ~n @@ fun set_a ->
  Scratch.with_set ~n @@ fun set_b ->
  Scratch.with_vec @@ fun vec_a ->
  Scratch.with_vec @@ fun vec_b ->
  let cur_set = ref set_a and cur_vec = ref vec_a in
  let next_set = ref set_b and next_vec = ref vec_b in
  Scratch.add !cur_set src;
  Int_vec.push !cur_vec src;
  for _ = 1 to k do
    Scratch.clear !next_set;
    Int_vec.clear !next_vec;
    let ns = !next_set and nv = !next_vec in
    Int_vec.iter
      (fun v ->
        Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
            if not (Scratch.mem ns dst) then begin
              Scratch.add ns dst;
              Int_vec.push nv dst
            end))
      !cur_vec;
    let ts = !cur_set and tv = !cur_vec in
    cur_set := !next_set;
    cur_vec := !next_vec;
    next_set := ts;
    next_vec := tv
  done;
  Int_vec.iter f !cur_vec

let connector_delta base_after ~view ~ops =
  let src_type, dst_type, k = khop_of_view view in
  let schema = Graph.schema base_after in
  let src_ty = Schema.vertex_type_id schema src_type in
  let dst_ty = Schema.vertex_type_id schema dst_type in
  let vg = view.Materialize.graph in
  let new_of_old = view.Materialize.new_of_old in
  let o_of_n = old_of_new vg new_of_old in
  let eops = edge_ops ops in
  (* Every exact-k path gained or lost by the batch crosses a changed
     edge (u, v) at some position i in 1..k, putting the path's source
     within i-1 <= k-1 backward hops of u. Walk backwards on the union
     graph (new in-adjacency plus deleted edges) to find them. *)
  let del_bwd = deleted_in_adjacency ops in
  let seeds = List.map (fun (src, _, _, _, _) -> src) eops in
  let neighbors v f =
    Graph.iter_in base_after v (fun ~src ~etype:_ ~eid:_ -> f src);
    match Hashtbl.find_opt del_bwd v with None -> () | Some srcs -> List.iter f srcs
  in
  let visited = bounded_bfs ~neighbors ~seeds ~depth:(k - 1) in
  let affected =
    Hashtbl.fold
      (fun v () acc -> if Graph.vertex_type base_after v = src_ty then v :: acc else acc)
      visited []
    |> List.sort compare
  in
  let added = ref [] and removed = ref [] in
  (* Diff each affected source's new exact-k reach against its view
     out-neighbourhood. Hub vertices make these sets large (a random
     update batch is degree-biased towards hubs), so the membership
     set is epoch-stamped scratch, not a hashtable: [data = 1] marks
     an old target seen again (still reachable). *)
  let n_base = Graph.n_vertices base_after in
  Scratch.with_set ~n:n_base @@ fun old_set ->
  Scratch.with_vec @@ fun old_vec ->
  List.iter
    (fun a ->
      Scratch.clear old_set;
      Int_vec.clear old_vec;
      if a < Array.length new_of_old && new_of_old.(a) >= 0 then
        Graph.iter_out vg new_of_old.(a) (fun ~dst ~etype:_ ~eid:_ ->
            let w = o_of_n.(dst) in
            if not (Scratch.mem old_set w) then begin
              Scratch.set_value old_set w 0;
              Int_vec.push old_vec w
            end);
      exact_k_targets base_after ~src:a ~k (fun w ->
          if Graph.vertex_type base_after w = dst_ty then
            if Scratch.mem old_set w then Scratch.set_value old_set w 1
            else added := (a, w) :: !added);
      Int_vec.iter
        (fun w -> if Scratch.value old_set w = 0 then removed := (a, w) :: !removed)
        old_vec)
    affected;
  { added = List.sort compare !added; removed = List.sort compare !removed }

(* Rebuild the view graph from itself plus the delta via
   [Graph.splice] — surviving pairs are blit-copied, never re-derived,
   so applying a small delta costs O(view) with memcpy constants
   instead of the per-source traversal a re-materialization pays. The
   vertex set is extended with base vertices of the endpoint types
   that appeared since materialization. *)
let apply_connector_delta base_after ~view ~(delta : delta) =
  let src_type, dst_type, k = khop_of_view view in
  let schema = Graph.schema base_after in
  let src_ty = Schema.vertex_type_id schema src_type in
  let dst_ty = Schema.vertex_type_id schema dst_type in
  let vg = view.Materialize.graph in
  let vschema = Graph.schema vg in
  let edge_ty =
    Schema.edge_type_id vschema (View.connector_edge_type (View.K_hop { src_type; dst_type; k }))
  in
  let old_len = Array.length view.Materialize.new_of_old in
  let n_after = Graph.n_vertices base_after in
  let new_of_old = Array.make n_after (-1) in
  Array.blit view.Materialize.new_of_old 0 new_of_old 0 (Stdlib.min old_len n_after);
  let appended = ref [] in
  let next_id = ref (Graph.n_vertices vg) in
  let append v =
    let id = !next_id in
    Stdlib.incr next_id;
    appended :=
      ( Schema.vertex_type_id vschema (Graph.vertex_type_name base_after v),
        Graph.vertex_props base_after v )
      :: !appended;
    new_of_old.(v) <- id;
    id
  in
  (* Endpoint-type vertices born after materialization. *)
  for v = old_len to n_after - 1 do
    let ty = Graph.vertex_type base_after v in
    if ty = src_ty || ty = dst_ty then ignore (append v)
  done;
  let ensure v = if new_of_old.(v) < 0 then append v else new_of_old.(v) in
  (* Mark removed pairs' eids up front (removed lists are small, view
     out-degrees are small), so [keep_eid] below is a plain array read
     on the splice's O(|view|) hot loop — or a constant when the batch
     removed nothing, which skips the array entirely. *)
  let keep_eid =
    if delta.removed = [] then fun _ -> true
    else begin
      let drop = Array.make (Stdlib.max 1 (Graph.n_edges vg)) false in
      List.iter
        (fun (a, w) ->
          if a < old_len && w < old_len && new_of_old.(a) >= 0 && new_of_old.(w) >= 0 then begin
            let nw = new_of_old.(w) in
            Graph.iter_out_etype vg new_of_old.(a) ~etype:edge_ty (fun ~dst ~eid ->
                if dst = nw then drop.(eid) <- true)
          end)
        delta.removed;
      fun eid -> not drop.(eid)
    end
  in
  let add_edges =
    Array.of_list (List.map (fun (a, w) -> (ensure a, ensure w, edge_ty, [])) delta.added)
  in
  let new_vertices = Array.of_list (List.rev !appended) in
  {
    view with
    Materialize.graph = Graph.splice vg ~new_vertices ~keep_eid ~add_edges ();
    new_of_old;
    build_cost =
      view.Materialize.build_cost
      +. float_of_int (List.length delta.added + List.length delta.removed);
  }

(* --------------------------------------------------------------- *)
(* Filter summarizers                                                *)

(* Updates map 1:1 through an inclusion/removal filter. Deletes must
   land on the same instance the overlay removed: the overlay deletes
   the first live matching (src, dst, etype) instance in eid order,
   and [Subgraph.restrict] preserves eid order, so skipping the first
   min(deletes, present) matching instances per key — and appending
   the surviving inserts in op order — reproduces a full
   re-materialization byte for byte. Deletes beyond the instances the
   view held at batch start cancelled same-batch inserts (oldest
   first), so only the last (inserts - cancelled) inserts survive. *)
let refresh_filter base_after ~(view : Materialize.materialized) ~ops =
  let vg = view.Materialize.graph in
  let vschema = Graph.schema vg in
  let old_len = Array.length view.Materialize.new_of_old in
  let n_after = Graph.n_vertices base_after in
  let new_of_old = Array.make n_after (-1) in
  Array.blit view.Materialize.new_of_old 0 new_of_old 0 (Stdlib.min old_len n_after);
  let appended = ref [] in
  let next_id = ref (Graph.n_vertices vg) in
  for v = old_len to n_after - 1 do
    let tname = Graph.vertex_type_name base_after v in
    if Schema.has_vertex_type vschema tname then begin
      appended :=
        (Schema.vertex_type_id vschema tname, Graph.vertex_props base_after v) :: !appended;
      new_of_old.(v) <- !next_id;
      Stdlib.incr next_id
    end
  done;
  let new_vertices = Array.of_list (List.rev !appended) in
  let kept ename src dst =
    Schema.has_edge_type vschema ename
    && src < n_after && dst < n_after
    && new_of_old.(src) >= 0
    && new_of_old.(dst) >= 0
  in
  let eops = edge_ops ops in
  (* Per-key tallies: deletes, inserts. Key = base-id endpoints +
     edge-type name. *)
  let dels : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let inss : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let bump tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.add tbl key (ref 1)
  in
  let kept_inserts = ref 0 and kept_deletes = ref 0 in
  List.iter
    (fun (src, dst, ename, _, is_insert) ->
      if kept ename src dst then
        if is_insert then begin
          Stdlib.incr kept_inserts;
          bump inss (src, dst, ename)
        end
        else begin
          Stdlib.incr kept_deletes;
          bump dels (src, dst, ename)
        end)
    eops;
  (* Instances of each deleted key the view held before the batch. *)
  let o_of_n = old_of_new vg view.Materialize.new_of_old in
  let held key =
    let s, d, ename = key in
    let ty = Schema.edge_type_id vschema ename in
    let c = ref 0 in
    Graph.iter_out_etype vg new_of_old.(s) ~etype:ty (fun ~dst ~eid:_ ->
        if dst = new_of_old.(d) then Stdlib.incr c);
    !c
  in
  let skip_budget : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let cancelled : (int * int * string, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key d ->
      let b_count = held key in
      let skip = Stdlib.min !d b_count in
      Hashtbl.add skip_budget key (ref skip);
      Hashtbl.add cancelled key (!d - skip))
    dels;
  (* Mark deleted instances in eid order, collect surviving inserts in
     op order, and splice: surviving edges are blit-copied with their
     properties, never re-derived. *)
  let drop = Array.make (Stdlib.max 1 (Graph.n_edges vg)) false in
  if Hashtbl.length skip_budget > 0 then
    Graph.iter_edges vg (fun ~eid ~src ~dst ~etype ->
        let key = (o_of_n.(src), o_of_n.(dst), Schema.edge_type_name vschema etype) in
        match Hashtbl.find_opt skip_budget key with
        | Some r when !r > 0 ->
          Stdlib.decr r;
          drop.(eid) <- true
        | _ -> ());
  let seen_ins : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let survivors = ref [] in
  List.iter
    (fun (src, dst, ename, props, is_insert) ->
      if is_insert && kept ename src dst then begin
        let key = (src, dst, ename) in
        let seen =
          match Hashtbl.find_opt seen_ins key with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add seen_ins key r;
            r
        in
        let idx = !seen in
        Stdlib.incr seen;
        let dropped = match Hashtbl.find_opt cancelled key with Some c -> c | None -> 0 in
        if idx >= dropped then
          survivors :=
            (new_of_old.(src), new_of_old.(dst), Schema.edge_type_id vschema ename, props)
            :: !survivors
      end)
    eops;
  let add_edges = Array.of_list (List.rev !survivors) in
  ( {
      view with
      Materialize.graph =
        Graph.splice vg ~new_vertices ~keep_eid:(fun eid -> not drop.(eid)) ~add_edges ();
      new_of_old;
      build_cost =
        view.Materialize.build_cost +. float_of_int (!kept_inserts + !kept_deletes);
    },
    Filter_delta { kept_inserts = !kept_inserts; kept_deletes = !kept_deletes } )

let filter_counts (view : Materialize.materialized) ops =
  let vschema = Graph.schema view.Materialize.graph in
  let new_of_old = view.Materialize.new_of_old in
  let old_len = Array.length new_of_old in
  let mapped v = v >= old_len || new_of_old.(v) >= 0 in
  let ins = ref 0 and del = ref 0 in
  List.iter
    (fun (src, dst, ename, _, is_insert) ->
      if Schema.has_edge_type vschema ename && mapped src && mapped dst then
        if is_insert then Stdlib.incr ins else Stdlib.incr del)
    (edge_ops ops);
  Filter_delta { kept_inserts = !ins; kept_deletes = !del }

(* --------------------------------------------------------------- *)
(* Dispatch                                                          *)

let has_path_counts (view : Materialize.materialized) =
  List.mem "paths" (Graph.edge_prop_keys view.Materialize.graph)

let rebuild_reason (view : Materialize.materialized) =
  match view.Materialize.view with
  | View.Connector _ when has_path_counts view -> Some "connector carries path counts"
  | View.Connector _ | View.Summarizer _ -> None

let noop_strategy (view : Materialize.materialized) =
  match view.Materialize.view with
  | View.Connector _ -> Connector_delta { added = []; removed = [] }
  | View.Summarizer _ -> Filter_delta { kept_inserts = 0; kept_deletes = 0 }

let plan base_after ~view ~ops =
  match rebuild_reason view with
  | Some reason -> Full_rebuild { reason }
  | None -> (
    if ops = [] then noop_strategy view
    else
      match view.Materialize.view with
      | View.Connector _ -> Connector_delta (connector_delta base_after ~view ~ops)
      | View.Summarizer _ -> filter_counts view ops)

(* The cost a [strategy] already paid, charged to the budget after
   the incremental paths (which are single structural passes — the
   full-rebuild path delegates its finer-grained accounting to
   [Materialize]). *)
let strategy_cost = function
  | Connector_delta d -> List.length d.added + List.length d.removed
  | Filter_delta { kept_inserts; kept_deletes } -> kept_inserts + kept_deletes
  | Full_rebuild _ -> 0

let refresh ?pool ?budget base_after ~view ~ops =
  Budget.check budget Budget.Refresh;
  Budget.fault_point Budget.Refresh ~site:"maintain.refresh";
  let out =
    match rebuild_reason view with
    | Some reason ->
      let with_path_counts = has_path_counts view in
      (Materialize.materialize ~with_path_counts ?pool ?budget base_after
         view.Materialize.view,
       Full_rebuild { reason })
    | None ->
      if ops = [] then (view, noop_strategy view)
      else (
        match view.Materialize.view with
        | View.Connector _ ->
          let d = connector_delta base_after ~view ~ops in
          (apply_connector_delta base_after ~view ~delta:d, Connector_delta d)
        | View.Summarizer _ -> refresh_filter base_after ~view ~ops)
  in
  Budget.step ~cost:(strategy_cost (snd out)) budget Budget.Refresh;
  out
