(* A trace id is 16 lowercase hex digits — the same shape as
   [Qlog.hash_query] output, so ids and hashes render uniformly in
   logs. Minting mixes a process-global counter with the pid, the
   wall clock and an optional session tag through FNV-1a, which makes
   collisions across concurrent servers astronomically unlikely
   without any coordination. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let counter = Atomic.make 0

let mint ?session () =
  let n = Atomic.fetch_and_add counter 1 in
  let h = mix fnv_offset (string_of_int (Unix.getpid ())) in
  let h = mix h (Printf.sprintf "%.6f" (Unix.gettimeofday ())) in
  let h = mix h (string_of_int n) in
  let h = match session with None -> h | Some s -> mix h s in
  Printf.sprintf "%016Lx" h

let is_valid id =
  String.length id = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id

(* The ambient context is domain-local. The server's worker domains
   run one request at a time, each inside its own [with_ctx]; systhreads
   of one domain share the slot, so two of them must not run traced
   requests at once. Pool workers never read it directly — Pool
   observers replay morsel spans on the calling domain, which is where
   the stamping happens. *)
let key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_ctx id f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some id);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let with_minted ?session f =
  match current () with
  | Some id -> f id
  | None ->
    let id = mint ?session () in
    with_ctx id (fun () -> f id)
