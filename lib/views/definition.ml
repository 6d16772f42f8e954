let defining_query (view : View.t) =
  match view with
  | View.Connector (View.K_hop { src_type; dst_type; k }) ->
    Some (Printf.sprintf "MATCH (a:%s)-[r*%d..%d]->(b:%s) RETURN a, b" src_type k k dst_type)
  | View.Summarizer (View.Vertex_inclusion types) ->
    (* One scan per kept type; the language has no UNION, so emit the
       per-type scans joined by ';' for callers that execute each. *)
    Some (String.concat "; " (List.map (fun t -> Printf.sprintf "MATCH (n:%s) RETURN n" t) types))
  | View.Summarizer (View.Edge_inclusion types) ->
    Some
      (String.concat "; "
         (List.map (fun t -> Printf.sprintf "MATCH (a)-[e:%s]->(b) RETURN a, e, b" t) types))
  | View.Summarizer (View.Vertex_removal _ | View.Edge_removal _) ->
    (* Removals need negation over types, which is outside the pattern
       language. *)
    None
