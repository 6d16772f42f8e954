open Kaskade_graph
open Kaskade_views

let magic = "KASKSNP1"

type contents = {
  seq : int;
  graph : Graph.t;
  views : (Materialize.materialized * Catalog.freshness) list;
}

(* Crash-atomic replace: a reader never observes a half-written file —
   it sees the old snapshot until the rename, the new one after. *)
let write_atomic path payload =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc payload;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let frame payload =
  let buf = Buffer.create (String.length payload + 24) in
  Buffer.add_string buf magic;
  Codec.add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Codec.add_i64 buf (Int64.to_int (Codec.fnv1a64 payload));
  Buffer.contents buf

(* Validate framing and hand back a reader positioned at the payload. *)
let unframe ~file s =
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    raise (Codec.Corrupt { file; reason = "bad snapshot magic" });
  let r = Codec.reader ~file s in
  ignore (Codec.sub r mlen);
  let payload_len = Codec.u32 r in
  let payload = Codec.sub r payload_len in
  let checksum = Codec.i64 r in
  if Int64.to_int (Codec.fnv1a64 payload) <> checksum then
    raise (Codec.Corrupt { file; reason = "snapshot checksum mismatch" });
  Codec.reader ~file payload

let add_freshness buf = function
  | Catalog.Fresh -> Codec.add_u8 buf 0
  | Catalog.Stale ops ->
    Codec.add_u8 buf 1;
    Codec.add_ops buf ops
  | Catalog.Rebuilding ->
    invalid_arg "Snapshot.write: cannot snapshot a Rebuilding view (refresh in flight)"

let read_freshness r =
  match Codec.u8 r with
  | 0 -> Catalog.Fresh
  | 1 -> Catalog.Stale (Codec.ops r)
  | tag -> Codec.corrupt r (Printf.sprintf "unknown freshness tag %d" tag)

let encode ~seq ~graph ~views =
  let buf = Buffer.create 4096 in
  Codec.add_i64 buf seq;
  Codec.add_graph buf graph;
  Codec.add_u32 buf (List.length views);
  List.iter
    (fun ((m : Materialize.materialized), freshness) ->
      Codec.add_view buf m.Materialize.view;
      Codec.add_graph buf m.Materialize.graph;
      Codec.add_i32_array buf m.Materialize.new_of_old;
      Codec.add_f64 buf m.Materialize.build_cost;
      add_freshness buf freshness)
    views;
  Buffer.contents buf

let decode r =
  let seq = Codec.i64 r in
  let graph = Codec.graph r in
  let n_views = Codec.u32 r in
  let views =
    List.init n_views (fun _ ->
        let view = Codec.view r in
        let vg = Codec.graph r in
        let new_of_old = Codec.i32_array r in
        let build_cost = Codec.f64 r in
        let freshness = read_freshness r in
        ({ Materialize.view; graph = vg; new_of_old; build_cost }, freshness))
  in
  { seq; graph; views }

let write path ~seq ~graph ~views =
  write_atomic path (frame (encode ~seq ~graph ~views))

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path = decode (unframe ~file:path (read_raw path))
