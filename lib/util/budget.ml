type stage = Enumerate | Plan | Execute | Refresh | Materialize

let stage_label = function
  | Enumerate -> "enumerate"
  | Plan -> "plan"
  | Execute -> "execute"
  | Refresh -> "refresh"
  | Materialize -> "materialize"

exception Exhausted of { stage : stage; detail : string }
exception Fault_injected of { site : string }

type t = {
  t0_ns : int64;
  deadline_s : float option;
  deadline_ns : int64 option;  (* absolute, precomputed from t0 *)
  max_steps : int option;
  max_rows : int option;
  mutable steps : int;
  mutable rows : int;
  mutable clock_fuse : int;  (* clock read when it runs out; starts spent *)
}

let clock_period = 256

let create ?deadline_s ?max_steps ?max_rows () =
  let t0 = Mclock.now_ns () in
  {
    t0_ns = t0;
    deadline_s;
    deadline_ns =
      Option.map (fun s -> Int64.add t0 (Int64.of_float (s *. 1e9))) deadline_s;
    max_steps;
    max_rows;
    steps = 0;
    rows = 0;
    clock_fuse = 0;
  }

let exhausted stage fmt =
  Format.kasprintf (fun detail -> raise (Exhausted { stage; detail })) fmt

let check_deadline t stage =
  match t.deadline_ns with
  | Some d when Mclock.now_ns () >= d ->
    exhausted stage "deadline of %.3fs exceeded" (Option.get t.deadline_s)
  | _ -> ()

let check_steps t stage =
  match t.max_steps with
  | Some m when t.steps > m -> exhausted stage "step budget of %d exceeded" m
  | _ -> ()

let check_rows t stage =
  match t.max_rows with
  | Some m when t.rows > m -> exhausted stage "row budget of %d exceeded" m
  | _ -> ()

let step ?(cost = 1) b stage =
  match b with
  | None -> ()
  | Some t ->
    t.steps <- t.steps + cost;
    check_steps t stage;
    t.clock_fuse <- t.clock_fuse - cost;
    if t.clock_fuse <= 0 then begin
      t.clock_fuse <- clock_period;
      check_deadline t stage
    end

let check b stage =
  match b with
  | None -> ()
  | Some t ->
    check_deadline t stage;
    check_steps t stage;
    check_rows t stage

let add_rows b stage n =
  match b with
  | None -> ()
  | Some t ->
    t.rows <- t.rows + n;
    check_rows t stage

let remaining_steps t = Option.map (fun m -> Stdlib.max 0 (m - t.steps)) t.max_steps
let elapsed_s t = Mclock.elapsed_s ~since:t.t0_ns
let deadline_s t = t.deadline_s

let describe t =
  let parts =
    [
      (match t.deadline_s with
      | Some d -> Printf.sprintf "deadline %.3fs (%.3fs elapsed)" d (elapsed_s t)
      | None -> "no deadline");
      (match t.max_steps with
      | Some m -> Printf.sprintf "steps %d/%d" t.steps m
      | None -> Printf.sprintf "steps %d" t.steps);
      (match t.max_rows with
      | Some m -> Printf.sprintf "rows %d/%d" t.rows m
      | None -> Printf.sprintf "rows %d" t.rows);
    ]
  in
  String.concat ", " parts

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

module Faults = struct
  type kind = Timeout | Fail

  type fault = { f_site : string; f_kind : kind; f_times : int; f_prob : float; f_seed : int }

  (* An armed fault: remaining fire count plus its own deterministic
     probability stream, so the same (seed, prob) fails the same
     hits regardless of what other faults are armed. *)
  type armed = { spec : fault; mutable left : int; prng : Prng.t }

  let fault ?(times = max_int) ?(prob = 1.0) ?(seed = 0) f_site f_kind =
    { f_site; f_kind; f_times = times; f_prob = prob; f_seed = seed }

  let arm spec = { spec; left = spec.f_times; prng = Prng.create spec.f_seed }

  let parse_entry entry =
    let bad () =
      invalid_arg
        (Printf.sprintf
           "KASKADE_FAULTS: bad entry %S (want site=timeout|fail[:nN][:pP][:sS])" entry)
    in
    match String.split_on_char '=' entry with
    | [ site; rhs ] when site <> "" -> begin
      match String.split_on_char ':' rhs with
      | kind_s :: mods ->
        let kind =
          match String.lowercase_ascii kind_s with
          | "timeout" -> Timeout
          | "fail" -> Fail
          | _ -> bad ()
        in
        List.fold_left
          (fun f m ->
            if m = "" then bad ()
            else
              let v = String.sub m 1 (String.length m - 1) in
              match m.[0] with
              | 'n' -> begin
                match int_of_string_opt v with Some n when n >= 0 -> { f with f_times = n } | _ -> bad ()
              end
              | 'p' -> begin
                match float_of_string_opt v with
                | Some p when p >= 0.0 && p <= 1.0 -> { f with f_prob = p }
                | _ -> bad ()
              end
              | 's' -> begin
                match int_of_string_opt v with Some s -> { f with f_seed = s } | _ -> bad ()
              end
              | _ -> bad ())
          (fault site kind) mods
      | [] -> bad ()
    end
    | _ -> bad ()

  let parse spec =
    String.split_on_char ',' spec
    |> List.filter_map (fun e ->
           let e = String.trim e in
           if e = "" then None else Some (parse_entry e))

  (* Faults from the environment are armed once, at the first
     [fault_point] that finds none installed programmatically. *)
  let env_armed =
    lazy
      (match Sys.getenv_opt "KASKADE_FAULTS" with
      | Some s when String.trim s <> "" -> List.map arm (parse s)
      | _ -> [])

  let installed : armed list ref = ref []

  let current () = !installed @ Lazy.force env_armed
  let active () = current () <> []

  let with_faults faults f =
    let saved = !installed in
    installed := List.map arm faults @ saved;
    Fun.protect ~finally:(fun () -> installed := saved) f

  let with_spec spec f = with_faults (parse spec) f

  (* First armed fault matching [site] that still has fires left and
     wins its probability draw. The draw consumes the stream even on a
     miss, so hit N's outcome is a pure function of (seed, prob, N). *)
  let hit site =
    let rec go = function
      | [] -> None
      | a :: rest ->
        if a.spec.f_site = site && a.left > 0 then begin
          let fires = a.spec.f_prob >= 1.0 || Prng.float a.prng 1.0 < a.spec.f_prob in
          if fires then begin
            a.left <- a.left - 1;
            Some a.spec.f_kind
          end
          else go rest
        end
        else go rest
    in
    go (current ())
end

let fault_point stage ~site =
  if Faults.active () then
    match Faults.hit site with
    | Some Faults.Timeout -> exhausted stage "injected timeout at %s" site
    | Some Faults.Fail -> raise (Fault_injected { site })
    | None -> ()
