type edge_def = { name : string; src : string; dst : string }

type t = {
  vnames : string array;
  edefs : edge_def array;
  v_by_name : (string, int) Hashtbl.t;
  e_by_name : (string, int) Hashtbl.t;
  e_src : int array;
  e_dst : int array;
}

let build vnames edefs =
  let v_by_name = Hashtbl.create 8 in
  Array.iteri
    (fun i name ->
      if Hashtbl.mem v_by_name name then invalid_arg ("Schema: duplicate vertex type " ^ name);
      Hashtbl.add v_by_name name i)
    vnames;
  let e_by_name = Hashtbl.create 8 in
  let lookup_v name =
    match Hashtbl.find_opt v_by_name name with
    | Some id -> id
    | None -> invalid_arg ("Schema: unknown vertex type " ^ name)
  in
  let e_src = Array.make (Array.length edefs) 0 in
  let e_dst = Array.make (Array.length edefs) 0 in
  Array.iteri
    (fun i (d : edge_def) ->
      if Hashtbl.mem e_by_name d.name then invalid_arg ("Schema: duplicate edge type " ^ d.name);
      Hashtbl.add e_by_name d.name i;
      e_src.(i) <- lookup_v d.src;
      e_dst.(i) <- lookup_v d.dst)
    edefs;
  { vnames; edefs; v_by_name; e_by_name; e_src; e_dst }

let define ~vertices ~edges =
  let edefs = List.map (fun (src, name, dst) -> { name; src; dst }) edges in
  build (Array.of_list vertices) (Array.of_list edefs)

let vertex_types t = Array.to_list t.vnames
let edge_defs t = Array.to_list t.edefs

let vertex_type_id t name =
  match Hashtbl.find_opt t.v_by_name name with Some id -> id | None -> raise Not_found

let vertex_type_name t id = t.vnames.(id)
let n_vertex_types t = Array.length t.vnames
let n_edge_types t = Array.length t.edefs

let edge_type_id t name =
  match Hashtbl.find_opt t.e_by_name name with Some id -> id | None -> raise Not_found

let edge_type_name t id = t.edefs.(id).name
let edge_src t id = t.e_src.(id)
let edge_dst t id = t.e_dst.(id)

let edge_types_from t vtid =
  let out = ref [] in
  for i = Array.length t.edefs - 1 downto 0 do
    if t.e_src.(i) = vtid then out := i :: !out
  done;
  !out

let has_vertex_type t name = Hashtbl.mem t.v_by_name name
let has_edge_type t name = Hashtbl.mem t.e_by_name name

let is_homogeneous t = Array.length t.vnames = 1 && Array.length t.edefs <= 1

let restrict t ~keep_vertices =
  let keep = List.filter (Hashtbl.mem t.v_by_name) keep_vertices in
  let keep_set = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace keep_set v ()) keep;
  let edges =
    Array.to_list t.edefs
    |> List.filter (fun (d : edge_def) -> Hashtbl.mem keep_set d.src && Hashtbl.mem keep_set d.dst)
    |> List.map (fun (d : edge_def) -> (d.src, d.name, d.dst))
  in
  define ~vertices:keep ~edges

let add_edge_type t ~src ~name ~dst =
  let vertices = vertex_types t in
  let edges = List.map (fun (d : edge_def) -> (d.src, d.name, d.dst)) (edge_defs t) in
  define ~vertices ~edges:(edges @ [ (src, name, dst) ])
