open Kaskade_graph

exception Semantic_error of string

type summary = {
  vertex_types : (string * string) list;
  edges : (string * string * string option) list;
  var_length_paths : (string * string * int * int) list;
  returned_vars : string list;
}

let err fmt = Format.kasprintf (fun s -> raise (Semantic_error s)) fmt

let check schema q =
  (* Anonymous pattern nodes still need identities for the summary,
     numbered per call so concurrent checks never share a counter. *)
  let anon_counter = ref 0 in
  let node_name (n : Ast.node_pat) =
    match n.n_var with
    | Some v -> v
    | None ->
      incr anon_counter;
      Printf.sprintf "_anon%d" !anon_counter
  in
  let vtypes : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let assign var ty =
    match Hashtbl.find_opt vtypes var with
    | Some existing when existing <> ty ->
      err "variable %s used with conflicting types %s and %s" var existing ty
    | Some _ -> ()
    | None -> Hashtbl.add vtypes var ty
  in
  let check_vertex_label = function
    | Some l when not (Schema.has_vertex_type schema l) -> err "unknown vertex type %s" l
    | _ -> ()
  in
  let edges = ref [] in
  let var_paths = ref [] in
  let all_vars = Hashtbl.create 16 in
  let note_var = function Some v -> Hashtbl.replace all_vars v () | None -> () in
  let visit_pattern (p : Ast.pattern) =
    note_var p.p_start.n_var;
    List.iter
      (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
        note_var e.e_var;
        note_var n.n_var)
      p.p_steps;
    check_vertex_label p.p_start.n_label;
    let start_name = node_name p.p_start in
    (match p.p_start.n_label with Some l -> assign start_name l | None -> ());
    let prev = ref (start_name, p.p_start.n_label) in
    List.iter
      (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
        check_vertex_label n.n_label;
        let n_name = node_name n in
        (match n.n_label with Some l -> assign n_name l | None -> ());
        let prev_name, _prev_label = !prev in
        (* Normalize to forward orientation. *)
        let src_var, dst_var =
          match e.e_dir with Ast.Fwd -> (prev_name, n_name) | Ast.Bwd -> (n_name, prev_name)
        in
        (match e.e_len with
        | Ast.Single -> begin
          (match e.e_label with
          | Some l ->
            if not (Schema.has_edge_type schema l) then err "unknown edge type %s" l;
            let etid = Schema.edge_type_id schema l in
            let dom = Schema.vertex_type_name schema (Schema.edge_src schema etid) in
            let rng = Schema.vertex_type_name schema (Schema.edge_dst schema etid) in
            assign src_var dom;
            assign dst_var rng
          | None -> ());
          edges := (src_var, dst_var, e.e_label) :: !edges
        end
        | Ast.Var_length (lo, hi) ->
          if lo < 0 then err "variable-length path lower bound must be >= 0";
          if hi < lo then err "variable-length path upper bound %d below lower bound %d" hi lo;
          (match e.e_label with
          | Some l when not (Schema.has_edge_type schema l) -> err "unknown edge type %s" l
          | _ -> ());
          var_paths := (src_var, dst_var, lo, hi) :: !var_paths);
        prev := (n_name, n.n_label))
      p.p_steps
  in
  let returned = ref [] in
  let visit_match (mb : Ast.match_block) =
    List.iter visit_pattern mb.patterns;
    List.iter
      (fun (it : Ast.select_item) ->
        match it.item_expr with
        | Ast.Var v -> returned := v :: !returned
        | _ -> ())
      mb.returns
  in
  List.iter visit_match (Ast.match_blocks_of q);
  (* Referenced-variable checks inside MATCH RETURN / WHERE: every Var
     must be a pattern variable. *)
  let known v = Hashtbl.mem all_vars v in
  List.iter
    (fun (mb : Ast.match_block) ->
      List.iter
        (fun (it : Ast.select_item) ->
          match it.item_expr with
          | Ast.Var v when not (known v) -> err "RETURN references unbound variable %s" v
          | _ -> ())
        mb.returns)
    (Ast.match_blocks_of q);
  {
    vertex_types = Hashtbl.fold (fun k v acc -> (k, v) :: acc) vtypes [] |> List.sort compare;
    edges = List.rev !edges;
    var_length_paths = List.rev !var_paths;
    returned_vars = List.rev !returned;
  }

let infer_vertex_type summary var = List.assoc_opt var summary.vertex_types
