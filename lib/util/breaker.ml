type state = Closed | Open | Half_open

type t = {
  threshold : int;
  cooldown_s : float;
  mutable st : state;
  mutable failures : int;  (* consecutive *)
  mutable opened_at_ns : int64;  (* meaningful while Open *)
}

let create ?(threshold = 3) ?(cooldown_s = 30.0) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  { threshold; cooldown_s; st = Closed; failures = 0; opened_at_ns = 0L }

(* Open decays to Half_open once the cooldown elapses — evaluated on
   read so no timer is needed. *)
let state t =
  (match t.st with
  | Open when Mclock.elapsed_s ~since:t.opened_at_ns >= t.cooldown_s -> t.st <- Half_open
  | _ -> ());
  t.st

let allow t = state t <> Open

let record_success t =
  t.failures <- 0;
  t.st <- Closed

let record_failure t =
  t.failures <- t.failures + 1;
  let opens = match state t with Half_open -> true | Closed -> t.failures >= t.threshold | Open -> false in
  if opens then begin
    t.st <- Open;
    t.opened_at_ns <- Mclock.now_ns ()
  end;
  opens

let failures t = t.failures

let describe t =
  match state t with
  | Closed -> "closed"
  | Half_open -> "half-open (probe pending)"
  | Open ->
    Printf.sprintf "open (%d failures, %.1fs cooldown left)" t.failures
      (Stdlib.max 0.0 (t.cooldown_s -. Mclock.elapsed_s ~since:t.opened_at_ns))
