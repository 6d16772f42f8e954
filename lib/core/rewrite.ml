open Kaskade_query
open Kaskade_views

type rewriting = { original : Ast.t; rewritten : Ast.t; view : View.t }

(* ------------------------------------------------------------------ *)
(* Chain normalization                                                 *)

let last_node (p : Ast.pattern) =
  match List.rev p.p_steps with [] -> p.p_start | (_, n) :: _ -> n

let concat_patterns (a : Ast.pattern) (b : Ast.pattern) =
  (* a's last node = b's first node; keep a's copy, merging labels. *)
  let a_last = last_node a in
  let joined =
    {
      Ast.n_var = a_last.n_var;
      n_label = (match a_last.n_label with Some _ as l -> l | None -> b.p_start.n_label);
    }
  in
  let a_steps =
    match List.rev a.p_steps with
    | [] -> []
    | (e, _) :: rest -> List.rev ((e, joined) :: rest)
  in
  if a_steps = [] then { Ast.p_start = joined; p_steps = b.p_steps }
  else { a with p_steps = a_steps @ b.p_steps }

let merge_chains patterns =
  let rec fixpoint ps =
    let rec try_merge acc = function
      | [] -> None
      | p :: rest -> begin
        let lv = (last_node p).Ast.n_var in
        match
          List.find_opt
            (fun (q : Ast.pattern) -> q != p && lv <> None && q.p_start.n_var = lv)
            (acc @ rest)
        with
        | Some q ->
          let merged = concat_patterns p q in
          let remaining = List.filter (fun r -> r != p && r != q) (acc @ (p :: rest)) in
          Some (merged :: remaining)
        | None -> try_merge (acc @ [ p ]) rest
      end
    in
    match try_merge [] ps with Some ps' -> fixpoint ps' | None -> ps
  in
  fixpoint patterns

(* ------------------------------------------------------------------ *)
(* Variable usage                                                      *)

let rec expr_vars acc = function
  | Ast.Var v -> v :: acc
  | Ast.Prop (v, _) -> v :: acc
  | Ast.Lit _ | Ast.Count_star -> acc
  | Ast.Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ast.Unop (_, e) -> expr_vars acc e
  | Ast.Agg (_, e) -> expr_vars acc e

let pattern_vars (p : Ast.pattern) =
  let acc = ref [] in
  (match p.p_start.n_var with Some v -> acc := v :: !acc | None -> ());
  List.iter
    (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
      (match e.e_var with Some v -> acc := v :: !acc | None -> ());
      match n.n_var with Some v -> acc := v :: !acc | None -> ())
    p.p_steps;
  !acc

(* Variables referenced by the match block outside a given chain. *)
let external_uses (mb : Ast.match_block) chain =
  let acc = ref [] in
  List.iter (fun (it : Ast.select_item) -> acc := expr_vars !acc it.item_expr) mb.returns;
  (match mb.m_where with Some e -> acc := expr_vars !acc e | None -> ());
  List.iter (fun p -> if p != chain then acc := pattern_vars p @ !acc) mb.patterns;
  List.sort_uniq compare !acc

(* ------------------------------------------------------------------ *)
(* Connector contraction                                               *)

type seg_edge = { ep : Ast.edge_pat; lo : int; hi : int }

(* Hop counts f in [1, max_hops] for which the schema admits an
   f-length directed type path src ~> dst. DP over type reachability:
   O(max_hops * |schema edges|). *)
let schema_feasible_hops schema ~src_type ~dst_type ~max_hops =
  let open Kaskade_graph in
  match (Schema.vertex_type_id schema src_type, Schema.vertex_type_id schema dst_type) with
  | exception Not_found -> []
  | src_ty, dst_ty ->
    let n = Schema.n_vertex_types schema in
    let cur = Array.make n false in
    cur.(src_ty) <- true;
    let feasible = ref [] in
    let cur = ref cur in
    for f = 1 to max_hops do
      let next = Array.make n false in
      Array.iteri
        (fun ty reachable ->
          if reachable then
            List.iter (fun et -> next.(Schema.edge_dst schema et) <- true)
              (Schema.edge_types_from schema ty))
        !cur;
      if next.(dst_ty) then feasible := f :: !feasible;
      cur := next
    done;
    List.rev !feasible

let edge_hops (e : Ast.edge_pat) =
  match e.e_len with Ast.Single -> (1, 1) | Ast.Var_length (lo, hi) -> (lo, hi)

(* A chain as arrays of nodes and edges. *)
let explode (p : Ast.pattern) =
  let nodes = Array.of_list (p.p_start :: List.map snd p.p_steps) in
  let edges =
    Array.of_list
      (List.map
         (fun ((e : Ast.edge_pat), _) ->
           let lo, hi = edge_hops e in
           { ep = e; lo; hi })
         p.p_steps)
  in
  (nodes, edges)

let implode nodes edges =
  match Array.to_list nodes with
  | [] -> invalid_arg "Rewrite.implode: empty chain"
  | start :: rest ->
    { Ast.p_start = start; p_steps = List.map2 (fun e n -> (e.ep, n)) (Array.to_list edges) rest }

let node_type schema summary (n : Ast.node_pat) =
  match n.Ast.n_label with
  | Some l -> Some l
  | None -> begin
    match n.Ast.n_var with
    | Some v -> Analyze.infer_vertex_type summary v
    | None -> begin
      (* Homogeneous schemas type everything. *)
      match Kaskade_graph.Schema.vertex_types schema with [ t ] -> Some t | _ -> None
    end
  end

let contract_chain schema summary mb (chain : Ast.pattern) ~src_type ~dst_type ~k ~edge_name =
  let nodes, edges = explode chain in
  let n_edges = Array.length edges in
  if n_edges = 0 then None
  else begin
    let used_outside = external_uses mb chain in
    let interior_free i j =
      let ok = ref true in
      for x = i + 1 to j - 1 do
        (match nodes.(x).Ast.n_var with
        | Some v -> if List.mem v used_outside then ok := false
        | None -> ());
        ()
      done;
      (* Edge variables inside the segment must also be unreferenced
         (their binding disappears with the contraction). *)
      for x = i to j - 1 do
        match edges.(x).ep.Ast.e_var with
        | Some v -> if List.mem v used_outside then ok := false
        | None -> ()
      done;
      !ok
    in
    let direction_of i j =
      let dirs = Array.init (j - i) (fun x -> edges.(i + x).ep.Ast.e_dir) in
      if Array.for_all (fun d -> d = Ast.Fwd) dirs then Some Ast.Fwd
      else if Array.for_all (fun d -> d = Ast.Bwd) dirs then Some Ast.Bwd
      else None
    in
    let type_ok i j dir =
      let a = node_type schema summary nodes.(i) and b = node_type schema summary nodes.(j) in
      match dir with
      | Ast.Fwd -> a = Some src_type && b = Some dst_type
      | Ast.Bwd -> a = Some dst_type && b = Some src_type
    in
    let hop_range i j =
      let lo = ref 0 and hi = ref 0 in
      for x = i to j - 1 do
        lo := !lo + edges.(x).lo;
        hi := !hi + edges.(x).hi
      done;
      (!lo, !hi)
    in
    (* Prefer the longest contractible segment. Soundness requires the
       connector to cover *every* hop count the original segment can
       realize: each schema-feasible hop count f in [lo, hi] must be a
       multiple of k (hop counts that the schema rules out match
       nothing, so they need no cover; connector hops whose k*h is
       schema-infeasible likewise match nothing and are harmless). *)
    let best = ref None in
    for i = 0 to n_edges do
      for j = n_edges downto i + 1 do
        if !best = None then begin
          match direction_of i j with
          | Some dir when type_ok i j dir && interior_free i j -> begin
            let lo, hi = hop_range i j in
            (* Unbounded segments are transitive closures, which no
               k-hop contraction answers. *)
            if hi > 64 then ()
            else
            let feasible =
              List.filter
                (fun f -> f >= lo && f <= hi)
                (schema_feasible_hops schema ~src_type ~dst_type ~max_hops:hi)
            in
            if feasible <> [] && List.for_all (fun f -> f mod k = 0) feasible then begin
              let hops = List.map (fun f -> f / k) feasible in
              let lo' = List.fold_left Stdlib.min max_int hops in
              let hi' = List.fold_left Stdlib.max 0 hops in
              best := Some (i, j, dir, lo', hi')
            end
          end
          | _ -> ()
        end
      done
    done;
    match !best with
    | None -> None
    | Some (i, j, dir, lo', hi') ->
      let conn_edge =
        {
          Ast.e_var = None;
          e_label = Some edge_name;
          e_len = (if lo' = 1 && hi' = 1 then Ast.Single else Ast.Var_length (lo', hi'));
          e_dir = dir;
        }
      in
      let new_nodes = Array.concat [ Array.sub nodes 0 (i + 1); Array.sub nodes j (Array.length nodes - j) ] in
      let new_edges =
        Array.concat
          [ Array.sub edges 0 i;
            [| { ep = conn_edge; lo = lo'; hi = hi' } |];
            Array.sub edges j (n_edges - j) ]
      in
      Some (implode new_nodes new_edges)
  end

let rewrite_connector schema query ~src_type ~dst_type ~k ~edge_name =
  let summary = Analyze.check schema query in
  let changed = ref false in
  let rewrite_block (mb : Ast.match_block) =
    let merged = merge_chains mb.patterns in
    let mb = { mb with Ast.patterns = merged } in
    let patterns' =
      List.map
        (fun chain ->
          if !changed then chain
          else begin
            match contract_chain schema summary mb chain ~src_type ~dst_type ~k ~edge_name with
            | Some chain' ->
              changed := true;
              chain'
            | None -> chain
          end)
        mb.patterns
    in
    { mb with Ast.patterns = patterns' }
  in
  let rec map_source = function
    | Ast.From_match mb -> Ast.From_match (rewrite_block mb)
    | Ast.From_select sb -> Ast.From_select { sb with Ast.from = map_source sb.Ast.from }
  in
  let rewritten =
    match query with
    | Ast.Select sb -> Ast.Select { sb with Ast.from = map_source sb.Ast.from }
    | Ast.Match_only mb -> Ast.Match_only (rewrite_block mb)
    | Ast.Call _ -> query
  in
  if !changed then Some rewritten else None

(* ------------------------------------------------------------------ *)
(* Traversal-type analysis                                             *)

(* Vertex types appearing on some directed schema walk src ~> dst of
   length <= max_hops (endpoints included). Conservative: for very
   large bounds, falls back to plain reachability (a superset, which
   is safe for computing keep-sets). *)
let types_on_walks schema ~src_type ~dst_type ~max_hops =
  let open Kaskade_graph in
  let n = Schema.n_vertex_types schema in
  let src = Schema.vertex_type_id schema src_type and dst = Schema.vertex_type_id schema dst_type in
  if max_hops > 64 then begin
    (* Length-insensitive closure: T with src ~>* T and T ~>* dst. *)
    let reach from =
      let seen = Array.make n false in
      seen.(from) <- true;
      let rec go frontier =
        match frontier with
        | [] -> ()
        | ty :: rest ->
          let next =
            List.filter_map
              (fun et ->
                let d = Schema.edge_dst schema et in
                if seen.(d) then None
                else begin
                  seen.(d) <- true;
                  Some d
                end)
              (Schema.edge_types_from schema ty)
          in
          go (next @ rest)
      in
      go [ from ];
      seen
    in
    let fwd = reach src in
    let out = ref [] in
    for ty = n - 1 downto 0 do
      if fwd.(ty) && (reach ty).(dst) then out := Schema.vertex_type_name schema ty :: !out
    done;
    !out
  end
  else begin
    (* fwd.(i).(t): t reachable from src in exactly i steps. *)
    let fwd = Array.make_matrix (max_hops + 1) n false in
    fwd.(0).(src) <- true;
    for i = 1 to max_hops do
      for ty = 0 to n - 1 do
        if fwd.(i - 1).(ty) then
          List.iter (fun et -> fwd.(i).(Schema.edge_dst schema et) <- true)
            (Schema.edge_types_from schema ty)
      done
    done;
    (* bwd.(j).(t): dst reachable from t in exactly j steps. *)
    let bwd = Array.make_matrix (max_hops + 1) n false in
    bwd.(0).(dst) <- true;
    for j = 1 to max_hops do
      for ty = 0 to n - 1 do
        List.iter
          (fun et -> if bwd.(j - 1).(Schema.edge_dst schema et) then bwd.(j).(ty) <- true)
          (Schema.edge_types_from schema ty)
      done
    done;
    let on_walk = Array.make n false in
    for i = 0 to max_hops do
      for j = 0 to max_hops - i do
        for ty = 0 to n - 1 do
          if fwd.(i).(ty) && bwd.(j).(ty) then on_walk.(ty) <- true
        done
      done
    done;
    let out = ref [] in
    for ty = n - 1 downto 0 do
      if on_walk.(ty) then out := Schema.vertex_type_name schema ty :: !out
    done;
    !out
  end

let traversal_types schema query =
  match Analyze.check schema query with
  | exception Analyze.Semantic_error _ -> None
  | summary ->
    let base = List.map snd summary.Analyze.vertex_types in
    let rec add_paths acc = function
      | [] -> Some acc
      | (x, y, _lo, hi) :: rest -> begin
        match (Analyze.infer_vertex_type summary x, Analyze.infer_vertex_type summary y) with
        | Some tx, Some ty ->
          add_paths (types_on_walks schema ~src_type:tx ~dst_type:ty ~max_hops:hi @ acc) rest
        | _ -> None
      end
    in
    Option.map (List.sort_uniq compare) (add_paths base summary.Analyze.var_length_paths)

(* ------------------------------------------------------------------ *)
(* Summarizer applicability                                            *)

let summarizer_applicable schema query ~keep_vertices ~kept_edges =
  match Analyze.check schema query with
  | exception Analyze.Semantic_error _ -> false
  | summary -> begin
    match traversal_types schema query with
    | None -> false
    | Some needed ->
      List.for_all (fun ty -> List.mem ty keep_vertices) needed
      && List.for_all
           (fun (_, _, et) -> match et with None -> true | Some e -> List.mem e kept_edges)
           summary.Analyze.edges
  end

let kept_after_restrict schema keep_vertices =
  let restricted = Kaskade_graph.Schema.restrict schema ~keep_vertices in
  ( Kaskade_graph.Schema.vertex_types restricted,
    List.map (fun (d : Kaskade_graph.Schema.edge_def) -> d.name) (Kaskade_graph.Schema.edge_defs restricted) )

let rewrite schema query (view : View.t) =
  match view with
  | View.Connector (View.K_hop { src_type; dst_type; k }) ->
    let edge_name = View.connector_edge_type (View.K_hop { src_type; dst_type; k }) in
    Option.map
      (fun rewritten -> { original = query; rewritten; view })
      (rewrite_connector schema query ~src_type ~dst_type ~k ~edge_name)
  | View.Summarizer (View.Vertex_inclusion keep) ->
    let keep_vertices, kept_edges = kept_after_restrict schema keep in
    if summarizer_applicable schema query ~keep_vertices ~kept_edges then
      Some { original = query; rewritten = query; view }
    else None
  | View.Summarizer (View.Vertex_removal drop) ->
    let keep =
      List.filter (fun t -> not (List.mem t drop)) (Kaskade_graph.Schema.vertex_types schema)
    in
    let keep_vertices, kept_edges = kept_after_restrict schema keep in
    if summarizer_applicable schema query ~keep_vertices ~kept_edges then
      Some { original = query; rewritten = query; view }
    else None
  | View.Summarizer (View.Edge_inclusion keep_edges) ->
    if
      summarizer_applicable schema query
        ~keep_vertices:(Kaskade_graph.Schema.vertex_types schema)
        ~kept_edges:keep_edges
    then Some { original = query; rewritten = query; view }
    else None
  | View.Summarizer (View.Edge_removal dropped) ->
    let kept_edges =
      List.filter_map
        (fun (d : Kaskade_graph.Schema.edge_def) ->
          if List.mem d.name dropped then None else Some d.name)
        (Kaskade_graph.Schema.edge_defs schema)
    in
    if
      summarizer_applicable schema query
        ~keep_vertices:(Kaskade_graph.Schema.vertex_types schema)
        ~kept_edges
    then Some { original = query; rewritten = query; view }
    else None
