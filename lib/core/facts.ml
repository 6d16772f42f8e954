open Kaskade_prolog
open Kaskade_query

let atom = Term.atom
let f name args = Term.compound name args

let query_facts schema q =
  let summary = Analyze.check schema q in
  let facts = ref [] in
  let emit t = facts := t :: !facts in
  let vars = Hashtbl.create 16 in
  let vertex v = if not (Hashtbl.mem vars v) then begin
      Hashtbl.add vars v ();
      emit (f "queryVertex" [ atom v ])
    end
  in
  (* Vertices and their types. *)
  List.iter
    (fun (v, ty) ->
      vertex v;
      emit (f "queryVertexType" [ atom v; atom ty ]))
    summary.Analyze.vertex_types;
  (* Untyped variables on homogeneous schemas get the unique type. *)
  let unique_type =
    match Kaskade_graph.Schema.vertex_types schema with [ t ] -> Some t | _ -> None
  in
  let ensure_typed v =
    vertex v;
    match (List.assoc_opt v summary.Analyze.vertex_types, unique_type) with
    | None, Some t -> emit (f "queryVertexType" [ atom v; atom t ])
    | _ -> ()
  in
  List.iter
    (fun (src, dst, etype) ->
      ensure_typed src;
      ensure_typed dst;
      emit (f "queryEdge" [ atom src; atom dst ]);
      match etype with
      | Some e -> emit (f "queryEdgeType" [ atom src; atom dst; atom e ])
      | None -> ())
    summary.Analyze.edges;
  List.iter
    (fun (src, dst, lo, hi) ->
      ensure_typed src;
      ensure_typed dst;
      emit (f "queryVariableLengthPath" [ atom src; atom dst; Term.int lo; Term.int hi ]))
    summary.Analyze.var_length_paths;
  List.iter (fun v -> emit (f "queryReturned" [ atom v ])) summary.Analyze.returned_vars;
  List.rev !facts

let schema_facts schema =
  let open Kaskade_graph in
  let vfacts = List.map (fun t -> f "schemaVertex" [ atom t ]) (Schema.vertex_types schema) in
  let efacts =
    List.map
      (fun (d : Schema.edge_def) -> f "schemaEdge" [ atom d.src; atom d.dst; atom d.name ])
      (Schema.edge_defs schema)
  in
  vfacts @ efacts

let assert_all db facts = List.iter (Db.add_fact db) facts
