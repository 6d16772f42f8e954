type t = {
  width : int;
  oversub : bool;  (* spawn up to [width] workers even past the core count *)
}

let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

let default_domains () =
  match Sys.getenv_opt "KASKADE_DOMAINS" with
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> clamp 1 64 n
    | _ -> clamp 1 8 (Domain.recommended_domain_count ())
  end
  | None -> clamp 1 8 (Domain.recommended_domain_count ())

let create ?domains ?(oversubscribe = false) () =
  let width = match domains with Some d -> clamp 1 64 d | None -> default_domains () in
  { width; oversub = oversubscribe }

let domains t = t.width

(* Spawning more domains than the machine has cores makes fan-outs
   slower, not faster: the workers time-share one core and every minor
   collection synchronizes all of them. Morsel fan-outs therefore cap
   their workers at the hardware parallelism unless the pool was
   created with [oversubscribe] — the escape hatch tests and
   [KASKADE_DOMAINS] use to force real worker domains anywhere. *)
let hardware_parallelism = lazy (clamp 1 64 (Domain.recommended_domain_count ()))

let effective_workers t =
  if t.oversub then t.width else Stdlib.min t.width (Lazy.force hardware_parallelism)

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    (* An explicit KASKADE_DOMAINS is a statement of intent: honor the
       requested width even on a smaller machine. *)
    let p = create ~oversubscribe:(Sys.getenv_opt "KASKADE_DOMAINS" <> None) () in
    default_pool := Some p;
    p

(* Telemetry hook (observability layer): per-morsel wall times are
   captured inside the executing domain but replayed to the hook from
   the calling domain after the join, so the hook itself never runs
   concurrently. *)
let morsel_observer :
    (worker:int ->
    workers:int ->
    morsel:int ->
    morsels:int ->
    lo:int ->
    hi:int ->
    start_s:float ->
    stop_s:float ->
    unit)
    option
    ref =
  ref None

let set_morsel_observer obs = morsel_observer := obs

(* --------------------------------------------------------------- *)
(* Work-stealing morsel fan-out.

   [\[0, n)] is cut into fixed-size morsels; workers (the caller plus
   spawned domains) claim them with an atomic fetch-and-add cursor, so
   a worker stuck on a heavy morsel simply stops claiming while the
   others drain the rest — no balanced partition to get wrong up
   front. Results land in a per-morsel slot array, so the caller reads
   them back in morsel-index order no matter which worker computed
   what: output order is that of a sequential run at any width and any
   grain. *)

let default_grain ~n ~workers =
  if workers <= 1 then n else clamp 1 n (Stdlib.max 256 (n / (workers * 8)))

let map_morsels t ?grain ~n f =
  if n <= 0 then [||]
  else begin
    let workers_cap = effective_workers t in
    let grain =
      match grain with
      | Some g when g > 0 -> Stdlib.min g n
      | Some g -> invalid_arg (Printf.sprintf "Pool.map_morsels: grain %d <= 0" g)
      | None -> default_grain ~n ~workers:workers_cap
    in
    let morsels = (n + grain - 1) / grain in
    let bounds i = (i * grain, Stdlib.min n ((i + 1) * grain)) in
    let w = Stdlib.min workers_cap morsels in
    if w <= 1 then
      (* Sequential: morsel order is index order, so the first raise is
         the sequentially-first one — same error as any parallel run. *)
      Array.init morsels (fun i ->
          let lo, hi = bounds i in
          f ~lo ~hi)
    else begin
      let observer = !morsel_observer in
      let results = Array.make morsels (Error Exit) in
      let times = match observer with None -> [||] | Some _ -> Array.make (2 * morsels) 0.0 in
      let who = match observer with None -> [||] | Some _ -> Array.make morsels 0 in
      let cursor = Atomic.make 0 in
      (* Every morsel is claimed and executed exactly once, failures
         included: a raising morsel is recorded and the worker moves
         on, so all domains drain the cursor and join cleanly. After
         the join the lowest-indexed error wins — and because each
         morsel scans its range in index order, that is exactly the
         exception a sequential run would have raised first. (A shared
         exhausted budget makes the remaining morsels fail fast at
         their first checkpoint, so nothing runs long past it.) *)
      let run_worker wid =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add cursor 1 in
          if i >= morsels then continue := false
          else begin
            let lo, hi = bounds i in
            match observer with
            | None -> results.(i) <- (try Ok (f ~lo ~hi) with e -> Error e)
            | Some _ ->
              who.(i) <- wid;
              times.(2 * i) <- Mclock.now_s ();
              results.(i) <- (try Ok (f ~lo ~hi) with e -> Error e);
              times.((2 * i) + 1) <- Mclock.now_s ()
          end
        done
      in
      let spawned = Array.init (w - 1) (fun j -> Domain.spawn (fun () -> run_worker (j + 1))) in
      run_worker 0;
      Array.iter Domain.join spawned;
      (match observer with
      | Some report ->
        for i = 0 to morsels - 1 do
          if times.((2 * i) + 1) > 0.0 then begin
            let lo, hi = bounds i in
            report ~worker:who.(i) ~workers:w ~morsel:i ~morsels ~lo ~hi ~start_s:times.(2 * i)
              ~stop_s:times.((2 * i) + 1)
          end
        done
      | None -> ());
      Array.iter (function Error e -> raise e | Ok _ -> ()) results;
      Array.map (function Ok v -> v | Error _ -> assert false) results
    end
  end
