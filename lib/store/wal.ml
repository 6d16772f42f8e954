module Budget = Kaskade_util.Budget
module Metrics = Kaskade_obs.Metrics

let log_src = Logs.Src.create "kaskade.store" ~doc:"Kaskade durability layer"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_appends = Metrics.counter ~help:"WAL records appended" "kaskade.wal_appends"

let m_bytes =
  Metrics.counter ~help:"WAL bytes written (records including framing)" "kaskade.wal_bytes"

let m_fsyncs = Metrics.counter ~help:"WAL fsync calls" "kaskade.wal_fsyncs"

type fsync_policy = Always | Every_n of int | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Always
  | "never" -> Never
  | s -> begin
    match String.split_on_char ':' s with
    | [ "every"; n ] -> begin
      match int_of_string_opt n with
      | Some n when n >= 1 -> Every_n n
      | _ -> invalid_arg ("Wal.fsync_policy_of_string: bad interval in " ^ s)
    end
    | _ -> invalid_arg ("Wal.fsync_policy_of_string: expected always, never or every:N, got " ^ s)
  end

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every_n n -> Printf.sprintf "every:%d" n

let magic = "KASKWAL1"

type t = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;
  policy : fsync_policy;
  mutable seq : int;
  mutable unsynced : int;  (* appends since the last fsync (Every_n) *)
  truncated : int;
}

let last_seq t = t.seq
let truncated_records t = t.truncated

(* Scan the raw file image: valid records in order, the byte length of
   the valid prefix, and whether a torn/corrupt tail was dropped. Any
   parse failure — short read, checksum mismatch, bad op tag — after a
   valid prefix is treated as the torn tail: everything a crashed
   append could leave behind. *)
let scan ~file s =
  let len = String.length s in
  if len < String.length magic || String.sub s 0 (String.length magic) <> magic then
    raise (Codec.Corrupt { file; reason = "bad WAL magic" });
  let r = Codec.reader ~file s in
  ignore (Codec.sub r (String.length magic));
  let records = ref [] in
  let valid_len = ref (Codec.pos r) in
  (try
     while Codec.pos r < len do
       let payload_len = Codec.u32 r in
       let body = Codec.sub r (8 + payload_len) in
       let checksum = Codec.i64 r in
       if Int64.to_int (Codec.fnv1a64 body) <> checksum then raise Exit;
       let br = Codec.reader ~file body in
       let seq = Codec.i64 br in
       let batch = Codec.ops br in
       records := (seq, batch) :: !records;
       valid_len := Codec.pos r
     done
   with End_of_file | Exit | Codec.Corrupt _ -> ());
  let truncated = if !valid_len < len then 1 else 0 in
  (List.rev !records, !valid_len, truncated)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path =
  let records, _, truncated = scan ~file:path (read_raw path) in
  (records, truncated)

let fsync_count t =
  (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
  t.unsynced <- 0;
  Metrics.incr m_fsyncs

let open_ ?(fsync_policy = Always) path =
  let fresh = not (Sys.file_exists path) in
  let records, valid_len, truncated =
    if fresh then ([], 0, 0) else scan ~file:path (read_raw path)
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let t =
    {
      path;
      oc = Unix.out_channel_of_descr fd;
      fd;
      policy = fsync_policy;
      seq = (match List.rev records with (seq, _) :: _ -> seq | [] -> 0);
      unsynced = 0;
      truncated;
    }
  in
  if fresh then begin
    output_string t.oc magic;
    flush t.oc;
    fsync_count t
  end
  else begin
    if truncated > 0 then begin
      Log.warn (fun k ->
          k "%s: truncating torn tail record (valid through byte %d)" path valid_len);
      Unix.ftruncate fd valid_len
    end;
    ignore (Unix.lseek fd valid_len Unix.SEEK_SET)
  end;
  t

let encode_record ~seq ops =
  let body = Buffer.create 256 in
  Codec.add_i64 body seq;
  Codec.add_ops body ops;
  let body = Buffer.contents body in
  let rec_buf = Buffer.create (String.length body + 16) in
  Codec.add_u32 rec_buf (String.length body - 8);
  Buffer.add_string rec_buf body;
  Codec.add_i64 rec_buf (Int64.to_int (Codec.fnv1a64 body));
  Buffer.contents rec_buf

let append t ops =
  let seq = t.seq + 1 in
  let record = encode_record ~seq ops in
  (* Seeded kill mid-append: leave half the record on disk — the torn
     tail the next open must truncate — then die with the armed
     exception, exactly as if the process was killed mid-write. *)
  (try Budget.fault_point Budget.Execute ~site:"store.wal_append"
   with e ->
     output_substring t.oc record 0 (String.length record / 2);
     flush t.oc;
     (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
     raise e);
  output_string t.oc record;
  flush t.oc;
  t.seq <- seq;
  Metrics.incr m_appends;
  Metrics.incr ~by:(String.length record) m_bytes;
  (match t.policy with
  | Always -> fsync_count t
  | Every_n n ->
    t.unsynced <- t.unsynced + 1;
    if t.unsynced >= n then fsync_count t
  | Never -> ());
  seq

let close t =
  flush t.oc;
  (match t.policy with Never -> () | Always | Every_n _ -> fsync_count t);
  close_out t.oc
