exception Format_error of string * int

let magic = "kaskade-graph 1"

let encode_str s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '%' || c = ' ' || c = '\t' || c = '\n' || c = '=' then
        Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let decode_str line_no s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' && !i + 2 < n then begin
      let hi = hex_digit s.[!i + 1] and lo = hex_digit s.[!i + 2] in
      if hi < 0 || lo < 0 then
        raise (Format_error ("bad escape " ^ String.sub s !i 3, line_no));
      Buffer.add_char buf (Char.chr ((hi * 16) + lo));
      i := !i + 3
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let encode_value = function
  | Value.Null -> "n:"
  | Value.Bool b -> "b:" ^ string_of_bool b
  | Value.Int n -> "i:" ^ string_of_int n
  | Value.Float f -> "f:" ^ Printf.sprintf "%h" f
  | Value.Str s -> "s:" ^ encode_str s

(* [parse s] or a [Format_error] naming [what] at [line_no]. *)
let parsed line_no what parse s =
  match parse s with Some v -> v | None -> raise (Format_error ("bad " ^ what ^ " " ^ s, line_no))

let decode_value line_no s =
  if String.length s < 2 || s.[1] <> ':' then raise (Format_error ("bad value " ^ s, line_no));
  let payload = String.sub s 2 (String.length s - 2) in
  match s.[0] with
  | 'n' -> Value.Null
  | 'b' -> Value.Bool (parsed line_no "bool" bool_of_string_opt payload)
  | 'i' -> Value.Int (parsed line_no "int" int_of_string_opt payload)
  | 'f' -> Value.Float (parsed line_no "float" float_of_string_opt payload)
  | 's' -> Value.Str (decode_str line_no payload)
  | c -> raise (Format_error (Printf.sprintf "unknown value tag %c" c, line_no))

let encode_props props =
  String.concat " " (List.map (fun (k, v) -> encode_str k ^ "=" ^ encode_value v) props)

let decode_props line_no fields =
  List.map
    (fun field ->
      match String.index_opt field '=' with
      | Some i ->
        ( decode_str line_no (String.sub field 0 i),
          decode_value line_no (String.sub field (i + 1) (String.length field - i - 1)) )
      | None -> raise (Format_error ("bad property " ^ field, line_no)))
    fields

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  let schema = Graph.schema g in
  List.iter (fun t -> Buffer.add_string buf ("vtype " ^ encode_str t ^ "\n")) (Schema.vertex_types schema);
  List.iter
    (fun (d : Schema.edge_def) ->
      Buffer.add_string buf
        (Printf.sprintf "etype %s %s %s\n" (encode_str d.src) (encode_str d.name) (encode_str d.dst)))
    (Schema.edge_defs schema);
  for v = 0 to Graph.n_vertices g - 1 do
    let props = Graph.vertex_props g v in
    Buffer.add_string buf
      (Printf.sprintf "v %d %s%s\n" v
         (encode_str (Graph.vertex_type_name g v))
         (if props = [] then "" else " " ^ encode_props props))
  done;
  Graph.iter_edges g (fun ~eid ~src ~dst ~etype ->
      let props = Graph.edge_props g eid in
      Buffer.add_string buf
        (Printf.sprintf "e %d %d %s%s\n" src dst
           (encode_str (Schema.edge_type_name schema etype))
           (if props = [] then "" else " " ^ encode_props props)));
  Buffer.contents buf

(* Every malformed input surfaces as [Format_error] at its line: the
   builder's [Invalid_argument]s (unknown type, out-of-range or
   ill-typed endpoint) are re-raised with the line that caused them. *)
let of_string text =
  let lines = String.split_on_char '\n' text in
  let vtypes = ref [] and etypes = ref [] in
  let vertex_lines = ref [] and edge_lines = ref [] in
  let int line_no s = parsed line_no "integer" int_of_string_opt s in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      let line = String.trim line in
      if line_no = 1 then begin
        if line <> magic then raise (Format_error ("bad magic: " ^ line, line_no))
      end
      else if line = "" || line.[0] = '#' then ()
      else begin
        match String.split_on_char ' ' line with
        | "vtype" :: name :: [] ->
          let name = decode_str line_no name in
          if List.mem name !vtypes then
            raise (Format_error ("duplicate vertex type " ^ name, line_no));
          vtypes := name :: !vtypes
        | "etype" :: src :: name :: dst :: [] ->
          etypes :=
            (line_no, decode_str line_no src, decode_str line_no name, decode_str line_no dst)
            :: !etypes
        | "v" :: id :: ty :: props ->
          vertex_lines := (line_no, int line_no id, decode_str line_no ty, props) :: !vertex_lines
        | "e" :: src :: dst :: ty :: props ->
          edge_lines :=
            (line_no, int line_no src, int line_no dst, decode_str line_no ty, props) :: !edge_lines
        | _ -> raise (Format_error ("unrecognized line: " ^ line, line_no))
      end)
    lines;
  let edges =
    List.map
      (fun (line_no, src, name, dst) ->
        List.iter
          (fun ty ->
            if not (List.mem ty !vtypes) then
              raise (Format_error ("etype " ^ name ^ " names unknown vertex type " ^ ty, line_no)))
          [ src; dst ];
        if List.exists (fun (l, _, n, _) -> n = name && l < line_no) !etypes then
          raise (Format_error ("duplicate edge type " ^ name, line_no));
        (src, name, dst))
      (List.rev !etypes)
  in
  let schema = Schema.define ~vertices:(List.rev !vtypes) ~edges in
  let b = Builder.create schema in
  let guard line_no f = try f () with Invalid_argument msg -> raise (Format_error (msg, line_no)) in
  List.iter
    (fun (line_no, id, ty, props) ->
      let props = decode_props line_no props in
      let got = guard line_no (fun () -> Builder.add_vertex b ~vtype:ty ~props ()) in
      if got <> id then
        raise (Format_error (Printf.sprintf "vertex ids must be dense and ordered (expected %d, got %d)" got id, line_no)))
    (List.rev !vertex_lines);
  List.iter
    (fun (line_no, src, dst, ty, props) ->
      let props = decode_props line_no props in
      guard line_no (fun () -> ignore (Builder.add_edge b ~src ~dst ~etype:ty ~props ())))
    (List.rev !edge_lines);
  Graph.freeze b

(* Crash-atomic replace: write to a temp file, fsync, then rename into
   place — a reader (or a post-crash recovery) sees either the old file
   or the complete new one, never a torn prefix. *)
let write_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc text;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save g path = write_atomic path (to_string g)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n |> of_string)
