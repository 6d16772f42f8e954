open Kaskade_graph

exception Corrupt of { file : string; reason : string }

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Writing ----------------------------------------------------------- *)

let add_u8 buf i =
  if i < 0 || i > 0xFF then invalid_arg "Codec.add_u8: out of range";
  Buffer.add_uint8 buf i

let add_u32 buf i =
  if i < 0 || i > 0xFFFFFFFF then invalid_arg "Codec.add_u32: out of range";
  Buffer.add_int32_le buf (Int32.of_int i)

let add_i32 buf i =
  if i < Int32.to_int Int32.min_int || i > Int32.to_int Int32.max_int then
    invalid_arg "Codec.add_i32: out of range";
  Buffer.add_int32_le buf (Int32.of_int i)

let add_i64 buf i = Buffer.add_int64_le buf (Int64.of_int i)
let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_u32_array buf a =
  add_u32 buf (Array.length a);
  Array.iter (fun x -> add_u32 buf x) a

let add_i32_array buf a =
  add_u32 buf (Array.length a);
  Array.iter (fun x -> add_i32 buf x) a

let add_value buf = function
  | Value.Null -> add_u8 buf 0
  | Value.Bool b ->
    add_u8 buf 1;
    add_u8 buf (if b then 1 else 0)
  | Value.Int n ->
    add_u8 buf 2;
    add_i64 buf n
  | Value.Float f ->
    add_u8 buf 3;
    add_f64 buf f
  | Value.Str s ->
    add_u8 buf 4;
    add_str buf s

let add_props buf props =
  add_u32 buf (List.length props);
  List.iter
    (fun (k, v) ->
      add_str buf k;
      add_value buf v)
    props

let add_op buf = function
  | Graph.Overlay.Insert_vertex { vtype; props } ->
    add_u8 buf 0;
    add_str buf vtype;
    add_props buf props
  | Graph.Overlay.Insert_edge { src; dst; etype; props } ->
    add_u8 buf 1;
    add_u32 buf src;
    add_u32 buf dst;
    add_str buf etype;
    add_props buf props
  | Graph.Overlay.Delete_edge { src; dst; etype } ->
    add_u8 buf 2;
    add_u32 buf src;
    add_u32 buf dst;
    add_str buf etype

let add_ops buf ops =
  add_u32 buf (List.length ops);
  List.iter (add_op buf) ops

let add_schema buf schema =
  let vts = Schema.vertex_types schema in
  add_u32 buf (List.length vts);
  List.iter (add_str buf) vts;
  let eds = Schema.edge_defs schema in
  add_u32 buf (List.length eds);
  List.iter
    (fun (d : Schema.edge_def) ->
      add_str buf d.Schema.src;
      add_str buf d.Schema.name;
      add_str buf d.Schema.dst)
    eds

let add_props_table buf props =
  let keys = Props.keys props in
  add_u32 buf (List.length keys);
  List.iter
    (fun key ->
      (* [column_size] may be unknown (0); collect to count exactly. *)
      let entries = ref [] in
      Props.iter_column props key (fun id v -> entries := (id, v) :: !entries);
      let entries = List.rev !entries in
      add_str buf key;
      add_u32 buf (List.length entries);
      List.iter
        (fun (id, v) ->
          add_u32 buf id;
          add_value buf v)
        entries)
    keys

let add_graph buf g =
  add_schema buf (Graph.schema g);
  add_u32 buf (Graph.n_vertices g);
  add_u32 buf (Graph.n_edges g);
  let vtype, e_src, e_dst, e_type = Graph.internal_arrays g in
  add_u32_array buf vtype;
  add_u32_array buf e_src;
  add_u32_array buf e_dst;
  add_u32_array buf e_type;
  let vprops, eprops = Graph.internal_props g in
  add_props_table buf vprops;
  add_props_table buf eprops

let add_str_list buf l =
  add_u32 buf (List.length l);
  List.iter (add_str buf) l

let add_view buf v =
  let open Kaskade_views.View in
  match v with
  | Connector (K_hop { src_type; dst_type; k }) ->
    add_u8 buf 0;
    add_str buf src_type;
    add_str buf dst_type;
    add_u32 buf k
  | Summarizer (Vertex_inclusion l) ->
    add_u8 buf 10;
    add_str_list buf l
  | Summarizer (Vertex_removal l) ->
    add_u8 buf 11;
    add_str_list buf l
  | Summarizer (Edge_inclusion l) ->
    add_u8 buf 12;
    add_str_list buf l
  | Summarizer (Edge_removal l) ->
    add_u8 buf 13;
    add_str_list buf l

(* Reading ----------------------------------------------------------- *)

type reader = { s : string; file : string; mutable pos : int }

let reader ~file s = { s; file; pos = 0 }
let pos r = r.pos
let corrupt r reason = raise (Corrupt { file = r.file; reason })

(* A read past the valid bytes is [End_of_file] — the signal torn-tail
   recovery truncates on, and the exception the [Error.Io] mapping
   catches for callers that read a damaged file directly. *)
let need r n = if r.pos + n > String.length r.s then raise End_of_file

let u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) in
  r.pos <- r.pos + 4;
  v

let i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let sub r n =
  need r n;
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let str r =
  let n = u32 r in
  sub r n

let u32_array r =
  let n = u32 r in
  need r (4 * n);
  Array.init n (fun _ -> u32 r)

let i32_array r =
  let n = u32 r in
  need r (4 * n);
  Array.init n (fun _ -> i32 r)

let value r =
  match u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (u8 r <> 0)
  | 2 -> Value.Int (i64 r)
  | 3 -> Value.Float (f64 r)
  | 4 -> Value.Str (str r)
  | tag -> corrupt r (Printf.sprintf "unknown value tag %d" tag)

let props r =
  let n = u32 r in
  List.init n (fun _ ->
      let k = str r in
      let v = value r in
      (k, v))

let op r =
  match u8 r with
  | 0 ->
    let vtype = str r in
    let props = props r in
    Graph.Overlay.Insert_vertex { vtype; props }
  | 1 ->
    let src = u32 r in
    let dst = u32 r in
    let etype = str r in
    let props = props r in
    Graph.Overlay.Insert_edge { src; dst; etype; props }
  | 2 ->
    let src = u32 r in
    let dst = u32 r in
    let etype = str r in
    Graph.Overlay.Delete_edge { src; dst; etype }
  | tag -> corrupt r (Printf.sprintf "unknown op tag %d" tag)

let ops r =
  let n = u32 r in
  List.init n (fun _ -> op r)

let schema r =
  let nv = u32 r in
  let vertices = List.init nv (fun _ -> str r) in
  let ne = u32 r in
  let edges =
    List.init ne (fun _ ->
        let src = str r in
        let name = str r in
        let dst = str r in
        (src, name, dst))
  in
  Schema.define ~vertices ~edges

let props_table r =
  let t = Props.create () in
  let ncols = u32 r in
  for _ = 1 to ncols do
    let key = str r in
    let n = u32 r in
    for _ = 1 to n do
      let id = u32 r in
      let v = value r in
      Props.set t id key v
    done
  done;
  t

let graph r =
  let sc = schema r in
  let n = u32 r in
  let m = u32 r in
  let vtype = u32_array r in
  let e_src = u32_array r in
  let e_dst = u32_array r in
  let e_type = u32_array r in
  if Array.length vtype <> n then corrupt r "vertex array length mismatch";
  if Array.length e_src <> m || Array.length e_dst <> m || Array.length e_type <> m then
    corrupt r "edge array length mismatch";
  let vprops = props_table r in
  let eprops = props_table r in
  Graph.of_arrays sc ~vtype ~e_src ~e_dst ~e_type ~vprops ~eprops

let str_list r =
  let n = u32 r in
  List.init n (fun _ -> str r)

let view r =
  let open Kaskade_views.View in
  match u8 r with
  | 0 ->
    let src_type = str r in
    let dst_type = str r in
    let k = u32 r in
    Connector (K_hop { src_type; dst_type; k })
  | 10 -> Summarizer (Vertex_inclusion (str_list r))
  | 11 -> Summarizer (Vertex_removal (str_list r))
  | 12 -> Summarizer (Edge_inclusion (str_list r))
  | 13 -> Summarizer (Edge_removal (str_list r))
  (* Tags 1-3 and 14-16 belonged to deleted view kinds. Never reuse
     them: a snapshot that holds one must decode as corrupt. *)
  | tag -> corrupt r (Printf.sprintf "unknown view tag %d" tag)
