type connector = K_hop of { src_type : string; dst_type : string; k : int }

type summarizer =
  | Vertex_inclusion of string list
  | Vertex_removal of string list
  | Edge_inclusion of string list
  | Edge_removal of string list

type t = Connector of connector | Summarizer of summarizer

let upper = String.uppercase_ascii

let connector_edge_type (K_hop { src_type; dst_type; k }) =
  Printf.sprintf "%s_TO_%s_%dHOP" (upper src_type) (upper dst_type) k

let name = function
  | Connector c -> connector_edge_type c
  | Summarizer s -> begin
    match s with
    | Vertex_inclusion types -> "KEEP_V_" ^ String.concat "_" (List.map upper types)
    | Vertex_removal types -> "DROP_V_" ^ String.concat "_" (List.map upper types)
    | Edge_inclusion types -> "KEEP_E_" ^ String.concat "_" (List.map upper types)
    | Edge_removal types -> "DROP_E_" ^ String.concat "_" (List.map upper types)
  end

let describe = function
  | Connector (K_hop { src_type; dst_type; k }) ->
    Printf.sprintf "%d-hop connector (%s-to-%s)" k src_type dst_type
  | Summarizer (Vertex_inclusion types) ->
    "vertex-inclusion summarizer keeping {" ^ String.concat ", " types ^ "}"
  | Summarizer (Vertex_removal types) ->
    "vertex-removal summarizer dropping {" ^ String.concat ", " types ^ "}"
  | Summarizer (Edge_inclusion types) ->
    "edge-inclusion summarizer keeping {" ^ String.concat ", " types ^ "}"
  | Summarizer (Edge_removal types) ->
    "edge-removal summarizer dropping {" ^ String.concat ", " types ^ "}"

let compare a b = String.compare (name a) (name b)
