open Kaskade_util

type t = {
  schema : Schema.t;
  vtypes : Int_vec.t;
  e_src : Int_vec.t;
  e_dst : Int_vec.t;
  e_type : Int_vec.t;
  vprops : Props.t;
  eprops : Props.t;
}

let create schema =
  {
    schema;
    vtypes = Int_vec.create ~capacity:1024 ();
    e_src = Int_vec.create ~capacity:4096 ();
    e_dst = Int_vec.create ~capacity:4096 ();
    e_type = Int_vec.create ~capacity:4096 ();
    vprops = Props.create ();
    eprops = Props.create ();
  }

let schema t = t.schema

let add_vertex t ~vtype ?(props = []) () =
  let vtid =
    try Schema.vertex_type_id t.schema vtype
    with Not_found -> invalid_arg ("Builder.add_vertex: unknown vertex type " ^ vtype)
  in
  let id = Int_vec.length t.vtypes in
  Int_vec.push t.vtypes vtid;
  List.iter (fun (k, v) -> Props.set t.vprops id k v) props;
  id

let add_edge t ~src ~dst ~etype ?(props = []) () =
  let etid =
    try Schema.edge_type_id t.schema etype
    with Not_found -> invalid_arg ("Builder.add_edge: unknown edge type " ^ etype)
  in
  let n = Int_vec.length t.vtypes in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Builder.add_edge: endpoint out of range";
  let src_t = Int_vec.get t.vtypes src and dst_t = Int_vec.get t.vtypes dst in
  if Schema.edge_src t.schema etid <> src_t || Schema.edge_dst t.schema etid <> dst_t then
    invalid_arg
      (Printf.sprintf "Builder.add_edge: edge %s requires (%s)->(%s) but got (%s)->(%s)" etype
         (Schema.vertex_type_name t.schema (Schema.edge_src t.schema etid))
         (Schema.vertex_type_name t.schema (Schema.edge_dst t.schema etid))
         (Schema.vertex_type_name t.schema src_t)
         (Schema.vertex_type_name t.schema dst_t));
  let id = Int_vec.length t.e_src in
  Int_vec.push t.e_src src;
  Int_vec.push t.e_dst dst;
  Int_vec.push t.e_type etid;
  List.iter (fun (k, v) -> Props.set t.eprops id k v) props;
  id

let set_vertex_prop t id k v =
  if id < 0 || id >= Int_vec.length t.vtypes then invalid_arg "Builder.set_vertex_prop: bad id";
  Props.set t.vprops id k v

let set_edge_prop t id k v =
  if id < 0 || id >= Int_vec.length t.e_src then invalid_arg "Builder.set_edge_prop: bad id";
  Props.set t.eprops id k v

let vertex_count t = Int_vec.length t.vtypes

(* Internal accessors for Graph.freeze. *)
let internal_vtypes t = t.vtypes
let internal_edges t = (t.e_src, t.e_dst, t.e_type)
let internal_props t = (t.vprops, t.eprops)
