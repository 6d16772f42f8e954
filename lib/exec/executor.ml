open Kaskade_graph
open Kaskade_query
module Explain = Kaskade_obs.Explain
module Metrics = Kaskade_obs.Metrics
module Trace = Kaskade_obs.Trace
module Scratch = Kaskade_util.Scratch
module Int_vec = Kaskade_util.Int_vec
module Budget = Kaskade_util.Budget

(* Process-wide execution metrics (see docs/OBSERVABILITY.md). The
   instruments are resolved once here; updates are single field
   mutations, cheap enough for the BFS inner loop. *)
let m_queries_run = Metrics.counter ~help:"Queries executed" "executor.queries_run"
let m_rows_produced = Metrics.counter ~help:"Result rows returned" "executor.rows_produced"

let m_expand_steps =
  Metrics.counter ~help:"Frontier vertex expansions during variable-length traversal"
    "executor.expand_steps"

(* Unbound start scans below this many candidate vertices stay
   sequential: a fan-out that cannot amortize its domain spawns over
   real per-candidate work only adds latency. *)
let parallel_scan_threshold = 2048

type mode = Distinct_endpoints | All_trails

(* A context either owns a frozen graph for good, or reads through a
   [Graph.Overlay]. Live contexts re-derive their graph snapshot (and
   drop derived caches) whenever the overlay's version moved — queries
   always observe the latest batch without callers rebuilding
   contexts. *)
type source = Frozen | Live of Graph.Overlay.t

type ctx = {
  source : source;
  mode : mode;
  planner : bool;
  pool : Kaskade_util.Pool.t option;
  mutable cache_version : int;
  mutable g : Graph.t;
  mutable stats : Gstats.t Lazy.t;
  mutable indexes : Vindex.t Lazy.t;
  mutable communities : int array option;
}

type result = Table of Row.table | Affected of int

let make ~source ~mode ~planner ~pool ~version g =
  {
    source;
    mode;
    planner;
    pool;
    cache_version = version;
    g;
    stats = lazy (Gstats.compute ?pool g);
    indexes = lazy (Vindex.create g);
    communities = None;
  }

let create ?(mode = Distinct_endpoints) ?(planner = false) ?pool g =
  make ~source:Frozen ~mode ~planner ~pool ~version:0 g

let create_live ?(mode = Distinct_endpoints) ?(planner = false) ?pool o =
  make ~source:(Live o) ~mode ~planner ~pool ~version:(Graph.Overlay.version o)
    (Graph.Overlay.graph o)

(* Called at every public entry point. Snapshotting is cheap when the
   overlay is clean (its cached graph is reused); statistics and
   property indexes stay lazy, so a pure update/read workload never
   pays for them. Community labels are positional and die with the
   old snapshot. *)
let sync ctx =
  match ctx.source with
  | Frozen -> ()
  | Live o ->
    let v = Graph.Overlay.version o in
    if v <> ctx.cache_version then begin
      let g = Graph.Overlay.graph o in
      let pool = ctx.pool in
      ctx.cache_version <- v;
      ctx.g <- g;
      ctx.stats <- lazy (Gstats.compute ?pool g);
      ctx.indexes <- lazy (Vindex.create g);
      ctx.communities <- None
    end

let graph ctx =
  sync ctx;
  ctx.g

let mode ctx = ctx.mode

let table_exn = function
  | Table t -> t
  | Affected _ -> invalid_arg "Executor.table_exn: result is not a table"

(* Unbound slot sentinel. *)
let unbound = Row.Prim Value.Null
let is_bound = function Row.Prim Value.Null -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

(* An expression compiled against one row layout. [compile_expr g
   resolve e] maps each variable of [e] to its column through
   [resolve] once, before any row is read, so evaluating it does no
   name lookup; a variable [resolve] does not know reads as null. *)
type compiled = Row.rval array -> Row.rval

let truthy = function Row.Prim v -> Value.is_truthy v | Row.V _ | Row.E _ -> true

let negate = function
  | Row.Prim (Value.Int n) -> Row.Prim (Value.Int (-n))
  | Row.Prim (Value.Float f) -> Row.Prim (Value.Float (-.f))
  | _ -> unbound

let apply_binop op va vb =
  let prim f =
    match (va, vb) with
    | Row.Prim x, Row.Prim y -> Row.Prim (f x y)
    | _ -> invalid_arg "Executor: arithmetic on a graph entity"
  in
  match op with
  | Ast.Add -> prim Value.add
  | Ast.Sub -> prim Value.sub
  | Ast.Mul -> prim Value.mul
  | Ast.Div -> prim Value.div
  | Ast.Eq -> Row.Prim (Value.Bool (Row.rval_equal va vb))
  | Ast.Ne -> Row.Prim (Value.Bool (not (Row.rval_equal va vb)))
  | Ast.Lt -> Row.Prim (Value.Bool (Row.rval_compare va vb < 0))
  | Ast.Le -> Row.Prim (Value.Bool (Row.rval_compare va vb <= 0))
  | Ast.Gt -> Row.Prim (Value.Bool (Row.rval_compare va vb > 0))
  | Ast.Ge -> Row.Prim (Value.Bool (Row.rval_compare va vb >= 0))
  | Ast.And -> Row.Prim (Value.Bool (truthy va && truthy vb))
  | Ast.Or -> Row.Prim (Value.Bool (truthy va || truthy vb))

let rec compile_expr g (resolve : string -> int option) (e : Ast.expr) : compiled =
  match e with
  | Ast.Var v -> begin
    match resolve v with Some i -> fun row -> row.(i) | None -> fun _ -> unbound
  end
  | Ast.Prop (v, p) -> (
    let var = compile_expr g resolve (Ast.Var v) in
    fun row ->
      match var row with
      | Row.V vid -> Row.Prim (Graph.vprop_or_null g vid p)
      | Row.E eid -> Row.Prim (Graph.eprop_or_null g eid p)
      | Row.Prim _ -> unbound)
  | Ast.Lit v ->
    let r = Row.Prim v in
    fun _ -> r
  | Ast.Unop (Ast.Neg, e) ->
    let f = compile_expr g resolve e in
    fun row -> negate (f row)
  | Ast.Unop (Ast.Not, e) -> (
    let f = compile_expr g resolve e in
    fun row ->
      match f row with
      | Row.Prim v -> Row.Prim (Value.Bool (not (Value.is_truthy v)))
      | _ -> Row.Prim (Value.Bool false))
  | Ast.Binop (op, a, b) ->
    let fa = compile_expr g resolve a and fb = compile_expr g resolve b in
    fun row ->
      let va = fa row in
      apply_binop op va (fb row)
  | Ast.Agg _ | Ast.Count_star ->
    fun _ -> invalid_arg "Executor: aggregate in a non-aggregating position"

(* A projection: one output column per compiled expression. *)
let project_with (exprs : compiled list) =
  let exprs = Array.of_list exprs in
  fun row -> Array.map (fun f -> f row) exprs

let project_items g resolve (items : Ast.select_item list) =
  project_with (List.map (fun (it : Ast.select_item) -> compile_expr g resolve it.item_expr) items)

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)

type slots = { index : (string, int) Hashtbl.t; mutable width : int }

let slot slots name =
  match Hashtbl.find_opt slots.index name with
  | Some i -> i
  | None ->
    let i = slots.width in
    slots.width <- i + 1;
    Hashtbl.add slots.index name i;
    i

let collect_slots (patterns : Ast.pattern list) =
  let slots = { index = Hashtbl.create 16; width = 0 } in
  List.iter
    (fun (p : Ast.pattern) ->
      (match p.p_start.n_var with Some v -> ignore (slot slots v) | None -> ());
      List.iter
        (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
          (match e.e_var with Some v -> ignore (slot slots v) | None -> ());
          match n.n_var with Some v -> ignore (slot slots v) | None -> ())
        p.p_steps)
    patterns;
  slots

(* The label test of a node pattern, resolved to a vertex type id
   (Analyze has rejected unknown labels). *)
let label_test g (n : Ast.node_pat) =
  match n.n_label with
  | None -> fun _ -> true
  | Some l ->
    let ty = Schema.vertex_type_id (Graph.schema g) l in
    fun v -> Graph.vertex_type g v = ty

(* One pattern step with its names resolved against the block's slots
   and the schema before any row is bound. [op] is the step's fused
   operator index (the start scan is 0). *)
type step = {
  edge : Ast.edge_pat;
  etype : int option;
  edge_slot : int option;
  node_ok : int -> bool;
  node_slot : int option;
  op : int;
}

let compile_steps g slots (p : Ast.pattern) =
  let schema = Graph.schema g in
  let slot_of = Option.map (Hashtbl.find slots.index) in
  List.mapi
    (fun i ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
      {
        edge = e;
        etype = Option.map (Schema.edge_type_id schema) e.e_label;
        edge_slot = slot_of e.e_var;
        node_ok = label_test g n;
        node_slot = slot_of n.n_var;
        op = i + 1;
      })
    p.p_steps

(* Bind vertex [v] to [slot] of [row] and continue with [k]: a bound
   slot must already hold [v]; an unbound one is filled in a copy. *)
let bind_vertex row slot v k =
  match slot with
  | None -> k row
  | Some i -> (
    match row.(i) with
    | Row.Prim Value.Null ->
      let row' = Array.copy row in
      row'.(i) <- Row.V v;
      k row'
    | Row.V u -> if u = v then k row
    | Row.E _ | Row.Prim _ -> ())

(* Distinct-endpoint var-length expansion: emit (endpoint, hops) once
   per endpoint whose walk length can fall in [lo, hi].

   For lo <= 1 a plain BFS is exact — any vertex first reached at hop
   d <= hi has a walk of length d >= lo — except the source itself,
   which BFS never revisits; a cyclic walk back to the source is
   detected when a frontier vertex points at it (this is what makes
   connector rewrites preserve j -> ... -> j self-pairs). For lo >= 2
   BFS under-approximates (a vertex at distance < lo may still have a
   longer walk), so exact per-level reachable sets are used instead. *)
(* The neighbor iterator is resolved once per expansion, outside the
   BFS loops: the typed cases walk their segmented-CSR slice directly
   (no per-edge [option] match, no filter closure allocation in the
   inner loop). *)
let neighbor_iter g ~etype ~(dir : Ast.edge_dir) =
  match (dir, etype) with
  | Ast.Fwd, Some et ->
    fun u f -> Graph.iter_out_etype g u ~etype:et (fun ~dst ~eid:_ -> f dst)
  | Ast.Fwd, None ->
    fun u f -> Graph.iter_out g u (fun ~dst ~etype:_ ~eid:_ -> f dst)
  | Ast.Bwd, Some et ->
    fun u f -> Graph.iter_in_etype g u ~etype:et (fun ~src:s ~eid:_ -> f s)
  | Ast.Bwd, None ->
    fun u f -> Graph.iter_in g u (fun ~src:s ~etype:_ ~eid:_ -> f s)

(* Run a traversal that counts its frontier-vertex expansions in
   [steps], then add the total to [m_expand_steps] once — also when a
   budget stops it midway. Off the main domain every [Metrics.incr] is
   a fetch-and-add on a cache line all domains share, too dear for an
   inner loop. *)
let counting_steps f =
  let steps = ref 0 in
  match f steps with
  | () -> Metrics.incr ~by:!steps m_expand_steps
  | exception e ->
    Metrics.incr ~by:!steps m_expand_steps;
    raise e

let var_length_endpoints ?budget g ~src ~lo ~hi ~etype ~(dir : Ast.edge_dir) emit =
  let neighbors = neighbor_iter g ~etype ~dir in
  counting_steps @@ fun steps ->
  (* One budget checkpoint per frontier-vertex expansion — the unit
     counted in [steps]. *)
  let neighbors u f =
    incr steps;
    Budget.step budget Budget.Execute;
    neighbors u f
  in
  let n = Graph.n_vertices g in
  if lo <= 1 then
    (* Visited set and frontier queues are epoch-stamped scratch
       buffers borrowed from the domain-local pool: no per-query
       Hashtbl, no list-cons churn in the BFS inner loop. *)
    Scratch.with_set ~n @@ fun visited ->
    Scratch.with_vec @@ fun vec_a ->
    Scratch.with_vec @@ fun vec_b ->
    begin
      Scratch.add visited src;
      if lo = 0 then emit src 0;
      let src_emitted = ref (lo = 0) in
      let cur = ref vec_a and next = ref vec_b in
      Int_vec.push !cur src;
      let hop = ref 0 in
      while Int_vec.length !cur > 0 && !hop < hi do
        incr hop;
        Int_vec.clear !next;
        let visit u =
          neighbors u (fun v ->
              if v = src && not !src_emitted && !hop >= lo then begin
                src_emitted := true;
                emit src !hop
              end;
              if not (Scratch.mem visited v) then begin
                Scratch.add visited v;
                if !hop >= lo then emit v !hop;
                Int_vec.push !next v
              end)
        in
        Int_vec.iter visit !cur;
        let tmp = !cur in
        cur := !next;
        next := tmp
      done
    end
  else
    (* Exact walk semantics: level h = vertices reachable by a walk of
       exactly h steps. Level sets are (set, members-vector) pairs so
       dedupe is O(1) and iteration is in deterministic discovery
       order. *)
    Scratch.with_set ~n @@ fun emitted ->
    Scratch.with_set ~n @@ fun set_a ->
    Scratch.with_set ~n @@ fun set_b ->
    Scratch.with_vec @@ fun vec_a ->
    Scratch.with_vec @@ fun vec_b ->
    begin
      let cur_set = ref set_a and cur_vec = ref vec_a in
      let next_set = ref set_b and next_vec = ref vec_b in
      Scratch.add !cur_set src;
      Int_vec.push !cur_vec src;
      (try
         for h = 1 to hi do
           Scratch.clear !next_set;
           Int_vec.clear !next_vec;
           let ns = !next_set and nv = !next_vec in
           Int_vec.iter
             (fun u ->
               neighbors u (fun v ->
                   if not (Scratch.mem ns v) then begin
                     Scratch.add ns v;
                     Int_vec.push nv v
                   end))
             !cur_vec;
           if Int_vec.length nv = 0 then raise Exit;
           if h >= lo then
             Int_vec.iter
               (fun v ->
                 if not (Scratch.mem emitted v) then begin
                   Scratch.add emitted v;
                   emit v h
                 end)
               nv;
           let ts = !cur_set and tv = !cur_vec in
           cur_set := !next_set;
           cur_vec := !next_vec;
           next_set := ts;
           next_vec := tv
         done
       with Exit -> ())
    end

(* All-trails var-length expansion: DFS over distinct-edge trails,
   emitting each endpoint once per trail reaching it. Exponential. *)
let var_length_trails ?budget g ~src ~lo ~hi ~etype ~(dir : Ast.edge_dir) emit =
  (* Edge iterator resolved once, typed cases slice-walk; the
     distinct-edge set is an epoch-stamped scratch buffer over edge
     ids (add on descent, remove on backtrack). *)
  let iter_step =
    match (dir, etype) with
    | Ast.Fwd, Some et ->
      fun v k -> Graph.iter_out_etype g v ~etype:et (fun ~dst ~eid -> k eid dst)
    | Ast.Fwd, None -> fun v k -> Graph.iter_out g v (fun ~dst ~etype:_ ~eid -> k eid dst)
    | Ast.Bwd, Some et ->
      fun v k -> Graph.iter_in_etype g v ~etype:et (fun ~src:s ~eid -> k eid s)
    | Ast.Bwd, None -> fun v k -> Graph.iter_in g v (fun ~src:s ~etype:_ ~eid -> k eid s)
  in
  Scratch.with_set ~n:(Graph.n_edges g) @@ fun used ->
  counting_steps @@ fun steps ->
  let rec dfs v depth =
    incr steps;
    Budget.step budget Budget.Execute;
    if depth >= lo then emit v depth;
    if depth < hi then
      iter_step v (fun eid u ->
          if not (Scratch.mem used eid) then begin
            Scratch.add used eid;
            dfs u (depth + 1);
            Scratch.remove used eid
          end)
  in
  dfs src 0

(* See Cost.equality_probe — shared with the plan builder so EXPLAIN
   displays the access path this function actually takes. *)
let equality_probe = Cost.equality_probe

(* When profiling, [prof] is the "Match" plan node Cost.plan built for
   this block: children are one "Pattern" node per pattern (whose own
   children are the fused scan/expand operators) followed by a
   "Filter" node when a WHERE clause exists. The executor fills actual
   row counts (successful bindings) and the wall time of each pattern
   and of the filter into that same tree. *)
let eval_match ?prof ?budget ctx (mb : Ast.match_block) : Row.table =
  let g = ctx.g in
  let slots = collect_slots mb.patterns in
  let resolve = Hashtbl.find_opt slots.index in
  let initial = [ Array.make (Stdlib.max slots.width 1) unbound ] in
  (* [tally i] counts one successful binding at fused-operator index
     [i] of the current pattern (0 = start scan, j = j-th step) — only
     wired up when profiling. *)
  let expand_pattern ?(tally = fun (_ : int) -> ()) rows (p : Ast.pattern) =
    let n_steps = List.length p.p_steps in
    let start_ok = label_test g p.p_start in
    let start_slot = Option.map (Hashtbl.find slots.index) p.p_start.n_var in
    let steps_of_p = compile_steps g slots p in
    (* The whole per-candidate pipeline (scan test, step walk,
       var-length expansion), parameterized over its row and tally
       sinks so the parallel scan below can give each morsel its own
       buffers. [make_start ~emit ~tally] returns [start row v]: try
       candidate start vertex [v] against input row [row]. *)
    let make_start ~emit ~tally =
      let rec steps row cur = function
        | [] -> emit row
        | st :: rest ->
          let accept_vertex edge_rval v =
            if st.node_ok v then
              bind_vertex row st.node_slot v (fun row ->
                  tally st.op;
                  match st.edge_slot with
                  | Some i ->
                    let row' = Array.copy row in
                    row'.(i) <- edge_rval;
                    steps row' v rest
                  | None -> steps row v rest)
          in
          (match st.edge.e_len with
          | Ast.Single -> begin
            (* Labelled steps walk their typed slice directly instead of
               filter-scanning the whole adjacency. *)
            match (st.edge.e_dir, st.etype) with
            | Ast.Fwd, Some et ->
              Graph.iter_out_etype g cur ~etype:et (fun ~dst ~eid -> accept_vertex (Row.E eid) dst)
            | Ast.Fwd, None ->
              Graph.iter_out g cur (fun ~dst ~etype:_ ~eid -> accept_vertex (Row.E eid) dst)
            | Ast.Bwd, Some et ->
              Graph.iter_in_etype g cur ~etype:et (fun ~src ~eid -> accept_vertex (Row.E eid) src)
            | Ast.Bwd, None ->
              Graph.iter_in g cur (fun ~src ~etype:_ ~eid -> accept_vertex (Row.E eid) src)
          end
          | Ast.Var_length (lo, hi) ->
            let emit_endpoint v hops = accept_vertex (Row.Prim (Value.Int hops)) v in
            let etype = st.etype and dir = st.edge.e_dir in
            (match ctx.mode with
            | Distinct_endpoints ->
              var_length_endpoints ?budget g ~src:cur ~lo ~hi ~etype ~dir emit_endpoint
            | All_trails -> var_length_trails ?budget g ~src:cur ~lo ~hi ~etype ~dir emit_endpoint))
      in
      fun row (v : int) ->
        (* Scan checkpoint: one step per candidate start vertex,
           whether or not it binds. *)
        Budget.step budget Budget.Execute;
        if start_ok v then
          bind_vertex row start_slot v (fun row ->
              tally 0;
              steps row v steps_of_p)
    in
    let out = ref [] in
    let emit row =
      Budget.add_rows budget Budget.Execute 1;
      out := row :: !out
    in
    let start = make_start ~emit ~tally in
    (* Unbound start scans over enough candidates fan out over the
       pool as work-stealing morsels: each morsel runs the pipeline
       for its candidate subrange into a private row buffer and tally
       array, then the caller merges buffers in morsel order — the
       merged row sequence (and every tally total) is exactly the
       sequential one, at any width and any grain. Per-candidate
       budget checkpoints run inside the morsels against the shared
       (racy-but-monotone) budget, and var-length expansions borrow
       each worker's own domain-local scratch. *)
    let par_pool =
      match ctx.pool with
      | Some pl when Kaskade_util.Pool.effective_workers pl > 1 -> Some pl
      | _ -> None
    in
    let scan_candidates row ~n candidate =
      match par_pool with
      | Some pl when n >= parallel_scan_threshold ->
        let parts =
          Kaskade_util.Pool.map_morsels pl ~n (fun ~lo ~hi ->
              let m_out = ref [] in
              let m_counts = Array.make (n_steps + 1) 0 in
              let m_emit r =
                Budget.add_rows budget Budget.Execute 1;
                m_out := r :: !m_out
              in
              let m_start =
                make_start ~emit:m_emit ~tally:(fun i -> m_counts.(i) <- m_counts.(i) + 1)
              in
              for i = lo to hi - 1 do
                m_start row (candidate i)
              done;
              (!m_out, m_counts))
        in
        Array.iter
          (fun (rows_m, counts_m) ->
            Array.iteri
              (fun i c ->
                for _ = 1 to c do
                  tally i
                done)
              counts_m;
            (* Morsel buffers are in reverse emit order; replaying each
               backwards onto the (also reversed) accumulator keeps the
               final [List.rev !out] in sequential order. *)
            List.iter (fun r -> out := r :: !out) (List.rev rows_m))
          parts
      | _ ->
        for i = 0 to n - 1 do
          start row (candidate i)
        done
    in
    (* An equality predicate on the start variable turns an unbound
       start's scan into an index probe. *)
    let index_probe =
      match (p.p_start.n_var, mb.m_where) with
      | Some var, Some cond -> equality_probe cond var
      | _ -> None
    in
    List.iter
      (fun row ->
        (* If the start variable is already bound, resume from it
           directly instead of scanning. *)
        let bound_start =
          match start_slot with
          | Some i -> begin match row.(i) with Row.V v -> Some v | _ -> None end
          | None -> None
        in
        match (bound_start, index_probe) with
        | Some v, _ -> start row v
        | None, Some (prop, value) ->
          List.iter (start row) (Vindex.lookup (Lazy.force ctx.indexes) ~prop value)
        | None, None -> begin
          match p.p_start.n_label with
          | Some l ->
            let cands = Graph.vertices_of_type_name g l in
            scan_candidates row ~n:(Array.length cands) (fun i -> cands.(i))
          | None -> scan_candidates row ~n:(Graph.n_vertices g) (fun i -> i)
        end)
      rows;
    List.rev !out
  in
  let t_match = match prof with None -> 0.0 | Some _ -> Trace.now_s () in
  let n_patterns = List.length mb.patterns in
  let child_prof i =
    match prof with
    | Some (m : Explain.node) -> List.nth_opt m.Explain.children i
    | None -> None
  in
  let rows =
    let idx = ref (-1) in
    List.fold_left
      (fun rows p ->
        Stdlib.incr idx;
        match child_prof !idx with
        | None -> expand_pattern rows p
        | Some pnode ->
          let n_steps = List.length p.Ast.p_steps in
          let counts = Array.make (n_steps + 1) 0 in
          let t0 = Trace.now_s () in
          let out = expand_pattern ~tally:(fun i -> counts.(i) <- counts.(i) + 1) rows p in
          Explain.set_time pnode (Trace.now_s () -. t0);
          Explain.set_actual pnode (List.length out);
          (* Children are listed downstream-first (step n, .., step 1,
             scan) while [counts] is pipeline-ordered (0 = scan). *)
          List.iteri
            (fun i (child : Explain.node) ->
              if i <= n_steps then Explain.set_actual child counts.(n_steps - i))
            pnode.Explain.children;
          out)
      initial mb.patterns
  in
  let rows =
    match mb.m_where with
    | None -> rows
    | Some cond ->
      let t0 = match prof with None -> 0.0 | Some _ -> Trace.now_s () in
      let test = compile_expr g resolve cond in
      let rows = List.filter (fun row -> truthy (test row)) rows in
      (match child_prof n_patterns with
      | Some fnode ->
        Explain.set_actual fnode (List.length rows);
        Explain.set_time fnode (Trace.now_s () -. t0)
      | None -> ());
      rows
  in
  let cols = Array.of_list (List.mapi Ast.item_name mb.returns) in
  let table = { Row.cols; rows = List.map (project_items g resolve mb.returns) rows } in
  (match prof with
  | Some m ->
    Explain.set_actual m (List.length table.Row.rows);
    Explain.set_time m (Trace.now_s () -. t_match)
  | None -> ());
  table

(* ------------------------------------------------------------------ *)
(* SELECT blocks                                                       *)

(* Keys (GROUP BY values, DISTINCT rows) are numbered in first-seen
   order by an open-addressing table. It is sized for at most [n]
   keys, one per input row, so it is never more than half full and
   never grows. Two keys are equal when every element is equal under
   [compare = 0], the equality a generic [Hashtbl] applies, so keys
   split exactly as they would there; the hash agrees with it
   ([Hashtbl.hash] on primitives, ids mixed directly). *)
type key_table = {
  slots : int array;  (* key id, or -1 when empty *)
  mask : int;
  keys : Row.rval array array;  (* by key id *)
  hashes : int array;  (* by key id *)
  mutable count : int;
}

let key_table n =
  let rec size s = if s >= 2 * n then s else size (2 * s) in
  let size = size 16 in
  {
    slots = Array.make size (-1);
    mask = size - 1;
    keys = Array.make (Stdlib.max n 1) [||];
    hashes = Array.make (Stdlib.max n 1) 0;
    count = 0;
  }

(* A final avalanche per element: without it, keys of small dense ids
   such as (source, target) vertex pairs land in runs of adjacent
   slots and linear probing degrades. *)
let mix h =
  let h = (h lxor (h lsr 32)) * 0x3c6ef372fe94f82b in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 32)

let key_hash (key : Row.rval array) =
  let h = ref 0 in
  for i = 0 to Array.length key - 1 do
    let e =
      match key.(i) with
      | Row.V v -> v lsl 1
      | Row.E e -> (e lsl 1) lor 1
      | Row.Prim p -> Hashtbl.hash p
    in
    h := mix (!h + e)
  done;
  !h

let same_rval a b =
  match (a, b) with
  | Row.V x, Row.V y | Row.E x, Row.E y -> x = y
  | Row.Prim x, Row.Prim y -> Stdlib.compare x y = 0
  | _ -> false

let same_key (a : Row.rval array) (b : Row.rval array) =
  let n = Array.length a in
  let rec go i = i = n || (same_rval a.(i) b.(i) && go (i + 1)) in
  n = Array.length b && go 0

(* The id of [key], a fresh one (the number of keys seen so far) when
   it is new. A new key is stored, not copied. *)
let key_id t key =
  let h = key_hash key in
  let rec probe i =
    let id = t.slots.(i) in
    if id < 0 then begin
      let id = t.count in
      t.slots.(i) <- id;
      t.keys.(id) <- key;
      t.hashes.(id) <- h;
      t.count <- id + 1;
      id
    end
    else if t.hashes.(id) = h && same_key t.keys.(id) key then id
    else probe ((i + 1) land t.mask)
  in
  probe (h land t.mask)

(* One aggregate call's running state, one cell per group id. Values
   that evaluate to null are skipped by every kind but [Count_rows]. *)
type acc =
  | Count_rows of int array  (* COUNT( * ) *)
  | Count of compiled * int array
  | Sum of compiled * Value.t array  (* left fold of [Value.add] from [Int 0] *)
  | Avg of compiled * float array * int array  (* numeric total, non-null count *)
  | Min of compiled * Row.rval array  (* null until the first value *)
  | Max of compiled * Row.rval array

let accumulate acc gid row =
  match acc with
  | Count_rows n -> n.(gid) <- n.(gid) + 1
  | Count (f, n) -> if is_bound (f row) then n.(gid) <- n.(gid) + 1
  | Sum (f, s) -> begin
    match f row with
    | Row.Prim Value.Null -> ()
    | Row.Prim p -> s.(gid) <- Value.add s.(gid) p
    | Row.V _ | Row.E _ -> invalid_arg "SUM over a graph entity"
  end
  | Avg (f, total, n) -> begin
    match f row with
    | Row.Prim Value.Null -> ()
    | Row.Prim p ->
      (match Value.to_float p with Some x -> total.(gid) <- total.(gid) +. x | None -> ());
      n.(gid) <- n.(gid) + 1
    | Row.V _ | Row.E _ -> invalid_arg "AVG over a graph entity"
  end
  (* Only a strictly better value replaces the best so far: the first
     of equal values wins. *)
  | Min (f, best) ->
    let v = f row in
    if is_bound v && ((not (is_bound best.(gid))) || Row.rval_compare v best.(gid) < 0) then
      best.(gid) <- v
  | Max (f, best) ->
    let v = f row in
    if is_bound v && ((not (is_bound best.(gid))) || Row.rval_compare v best.(gid) > 0) then
      best.(gid) <- v

let acc_value acc gid =
  match acc with
  | Count_rows n | Count (_, n) -> Row.Prim (Value.Int n.(gid))
  | Sum (_, s) -> Row.Prim s.(gid)
  | Avg (_, total, n) ->
    if n.(gid) = 0 then unbound else Row.Prim (Value.Float (total.(gid) /. float_of_int n.(gid)))
  | Min (_, best) | Max (_, best) -> best.(gid)

(* An item of an aggregating projection: aggregate calls read their
   accumulator, any subexpression free of aggregates reads the group's
   first row (SQL-style, the group key). *)
type agg_item =
  | Acc of acc
  | First of compiled
  | Agg_binop of Ast.binop * agg_item * agg_item
  | Agg_neg of agg_item

(* One pass over [rows]: each row finds its group id (first-seen
   order) and feeds every accumulator. With no GROUP BY all rows form
   group 0, which exists even over empty input: SQL gives an aggregate
   exactly one row there (count 0, null avg). *)
let aggregate g resolve (sb : Ast.select_block) rows =
  let n_rows = List.length rows in
  (* Every cell array holds one cell per possible group. *)
  let cap = if sb.group_by = [] then 1 else Stdlib.max n_rows 1 in
  let compile = compile_expr g resolve in
  let accs = ref [] in
  let acc a =
    accs := a :: !accs;
    Acc a
  in
  let rec item (e : Ast.expr) =
    match e with
    | _ when not (Ast.has_aggregate e) -> First (compile e)
    | Ast.Count_star -> acc (Count_rows (Array.make cap 0))
    | Ast.Agg (kind, inner) -> (
      let f = compile inner in
      acc
        (match kind with
        | Ast.Count -> Count (f, Array.make cap 0)
        | Ast.Sum -> Sum (f, Array.make cap (Value.Int 0))
        | Ast.Avg -> Avg (f, Array.make cap 0.0, Array.make cap 0)
        | Ast.Min -> Min (f, Array.make cap unbound)
        | Ast.Max -> Max (f, Array.make cap unbound)))
    | Ast.Binop (op, a, b) ->
      let a = item a in
      Agg_binop (op, a, item b)
    | Ast.Unop (Ast.Neg, inner) -> Agg_neg (item inner)
    (* NOT over an aggregate: evaluating it raises, as an aggregate
       does in any non-aggregating position. *)
    | e -> First (compile e)
  in
  let items = Array.of_list (List.map (fun (it : Ast.select_item) -> item it.item_expr) sb.items) in
  let accs = Array.of_list (List.rev !accs) in
  let group_of =
    match sb.group_by with
    | [] -> fun _ -> 0
    | exprs ->
      let key_of = project_with (List.map compile exprs) in
      let table = key_table n_rows in
      fun row -> key_id table (key_of row)
  in
  let firsts = Array.make cap [||] in
  let n_groups = ref 0 in
  List.iter
    (fun row ->
      let gid = group_of row in
      if gid = !n_groups then begin
        firsts.(gid) <- row;
        incr n_groups
      end;
      Array.iter (fun a -> accumulate a gid row) accs)
    rows;
  let rec value gid = function
    | Acc a -> acc_value a gid
    | First f -> if gid < !n_groups then f firsts.(gid) else unbound
    | Agg_binop (op, a, b) ->
      let va = value gid a in
      let vb = value gid b in
      (match op with
      | Ast.And | Ast.Or -> invalid_arg "Executor: boolean combination of aggregates"
      | _ -> apply_binop op va vb)
    | Agg_neg i -> negate (value gid i)
  in
  let n_out = if sb.group_by = [] then 1 else !n_groups in
  List.init n_out (fun gid -> Array.map (value gid) items)

(* Rows in first-seen order, each kept once. *)
let distinct rows =
  let t = key_table (List.length rows) in
  List.filter
    (fun row ->
      let n = t.count in
      key_id t row = n)
    rows

(* A stable sort on keys computed once per row, so it orders rows
   exactly as comparing freshly evaluated keys would. A lone row is
   never compared, so its keys are not evaluated either. *)
let sort_rows (keys : compiled list) dirs rows =
  match rows with
  | [] | [ _ ] -> rows
  | _ ->
    let key_of = project_with keys in
    let desc = Array.of_list (List.map (fun d -> d = Ast.Desc) dirs) in
    let cmp (ka, _) (kb, _) =
      let rec go i =
        if i = Array.length desc then 0
        else
          let c = Row.rval_compare ka.(i) kb.(i) in
          if c <> 0 then if desc.(i) then -c else c else go (i + 1)
      in
      go 0
    in
    List.map snd (List.stable_sort cmp (List.map (fun row -> (key_of row, row)) rows))

(* The column named [name] in [t] (the first of equal names). *)
let column (t : Row.table) name =
  match Row.col_index t name with i -> Some i | exception Not_found -> None

let rec eval_select ?prof ?budget ctx (sb : Ast.select_block) : Row.table =
  let g = ctx.g in
  (* Peel the stage chain Cost.select_plan built — Limit over Sort
     over Distinct over Aggregate/Project over Filter over the source
     — mirroring its construction conditions, so each stage below can
     record its actual output cardinality and its time, inclusive of
     the stages under it, on the right node. *)
  let peel cond n =
    if not cond then (None, n)
    else
      match n with
      | Some (node : Explain.node) -> (Some node, List.nth_opt node.Explain.children 0)
      | None -> (None, None)
  in
  let t_select = match prof with None -> 0.0 | Some _ -> Trace.now_s () in
  let limit_p, n = peel (sb.limit <> None) prof in
  let sort_p, n = peel (sb.order_by <> []) n in
  let dist_p, n = peel sb.distinct n in
  let proj_p, n = peel true n in
  let filt_p, src_p = peel (sb.s_where <> None) n in
  let stage node rows =
    Option.iter
      (fun n ->
        Explain.set_actual n (List.length rows);
        Explain.set_time n (Trace.now_s () -. t_select))
      node;
    rows
  in
  let source =
    match sb.from with
    | Ast.From_match mb -> eval_match ?prof:src_p ?budget ctx mb
    | Ast.From_select inner -> eval_select ?prof:src_p ?budget ctx inner
  in
  let resolve = column source in
  let rows =
    match sb.s_where with
    | None -> source.rows
    | Some cond ->
      let test = compile_expr g resolve cond in
      stage filt_p (List.filter (fun row -> truthy (test row)) source.rows)
  in
  let any_agg = List.exists (fun (it : Ast.select_item) -> Ast.has_aggregate it.item_expr) sb.items in
  let cols = Array.of_list (List.mapi Ast.item_name sb.items) in
  let rows =
    stage proj_p
      (if sb.group_by = [] && not any_agg then List.map (project_items g resolve sb.items) rows
       else aggregate g resolve sb rows)
  in
  (* DISTINCT before ORDER BY / LIMIT, SQL-style; ORDER BY sees the
     projected output (aliases in scope). *)
  let rows = if sb.distinct then stage dist_p (distinct rows) else rows in
  let rows =
    if sb.order_by = [] then rows
    else
      let resolve = column { Row.cols; rows = [] } in
      let keys = List.map (fun (e, _) -> compile_expr g resolve e) sb.order_by in
      stage sort_p (sort_rows keys (List.map snd sb.order_by) rows)
  in
  let rows =
    match sb.limit with
    | Some n ->
      let rec take k = function [] -> [] | x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> [] in
      stage limit_p (take n rows)
    | None -> rows
  in
  { Row.cols; rows }

(* ------------------------------------------------------------------ *)
(* CALL procedures                                                     *)

let eval_call ctx (c : Ast.proc_call) : result =
  match (c.proc, c.proc_args) with
  | "algo.labelPropagation", [ Value.Int passes ] ->
    let labels = Label_prop.run ctx.g ~passes in
    ctx.communities <- Some labels;
    Affected (Graph.n_vertices ctx.g)
  | "algo.largestCommunity", [ Value.Str type_name ] -> begin
    match ctx.communities with
    | None -> invalid_arg "algo.largestCommunity: run algo.labelPropagation first"
    | Some labels ->
      let count_type =
        if type_name = "" then None
        else Some (Schema.vertex_type_id (Graph.schema ctx.g) type_name)
      in
      let label, members =
        Label_prop.largest_community ctx.g ~labels ?count_type ()
      in
      Table
        {
          Row.cols = [| "vertex"; "community" |];
          rows = List.map (fun v -> [| Row.V v; Row.Prim (Value.Int label) |]) members;
        }
  end
  | name, _ -> invalid_arg ("Executor: unknown procedure or bad arguments: " ^ name)

(* Semantic check + planner pass — the query that will actually
   execute (and that EXPLAIN must therefore describe). *)
let prepare ctx (q : Ast.t) =
  match q with
  | Ast.Call _ -> q
  | Ast.Match_only _ | Ast.Select _ ->
    ignore (Analyze.check (Graph.schema ctx.g) q);
    if ctx.planner then Planner.optimize (Lazy.force ctx.stats) (Graph.schema ctx.g) q else q

let exec_prepared ?prof ?budget ctx (q : Ast.t) : result =
  match q with
  | Ast.Call c -> eval_call ctx c
  | Ast.Match_only mb -> Table (eval_match ?prof ?budget ctx mb)
  | Ast.Select sb -> Table (eval_select ?prof ?budget ctx sb)

let account result =
  Metrics.incr m_queries_run;
  (match result with
  | Table t -> Metrics.incr ~by:(Row.n_rows t) m_rows_produced
  | Affected _ -> ());
  result

let run ?budget ctx (q : Ast.t) : result =
  Trace.with_span "executor.run" @@ fun () ->
  sync ctx;
  (* Entry checkpoint: an already-exhausted budget (0ms deadline) must
     fire before any scan starts, and fault injection can force a
     timeout here. *)
  Budget.check budget Budget.Execute;
  Budget.fault_point Budget.Execute ~site:"executor.run";
  account (exec_prepared ?budget ctx (prepare ctx q))

let explain ctx (q : Ast.t) =
  sync ctx;
  let q = prepare ctx q in
  Cost.plan (Lazy.force ctx.stats) (Graph.schema ctx.g) q

let run_explained ?(profile = false) ?budget ctx (q : Ast.t) =
  Trace.with_span "executor.run" @@ fun () ->
  sync ctx;
  Budget.check budget Budget.Execute;
  Budget.fault_point Budget.Execute ~site:"executor.run";
  let q = prepare ctx q in
  let plan = Cost.plan (Lazy.force ctx.stats) (Graph.schema ctx.g) q in
  let prof = if profile then Some plan else None in
  let t0 = Trace.now_s () in
  let result = account (exec_prepared ?prof ?budget ctx q) in
  (* MATCH/SELECT roots annotate themselves; CALL has no eval-side
     instrumentation, so fill its single node here. *)
  (if profile then
     match q with
     | Ast.Call _ ->
       Explain.set_time plan (Trace.now_s () -. t0);
       (match result with
       | Affected n -> Explain.set_actual plan n
       | Table t -> Explain.set_actual plan (Row.n_rows t))
     | Ast.Match_only _ | Ast.Select _ -> ());
  (result, plan)

let run_string ctx src = run ctx (Qparser.parse src)
