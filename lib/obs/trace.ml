type span = {
  name : string;
  attrs : (string * string) list;
  start_s : float;
  duration_s : float;
  children : span list;
}

(* An open span accumulates attrs/children in reverse; closing it
   freezes the record. *)
type open_span = {
  o_name : string;
  mutable o_attrs : (string * string) list;
  o_start : float;
  mutable o_children : span list;  (* reverse start order *)
}

type state = {
  epoch : float;
  mutable stack : open_span list;  (* innermost first *)
  mutable roots : span list;  (* reverse start order *)
}

let current : state option ref = ref None

let enabled () = !current <> None
(* Monotonic, not wall time: span durations and operator timings must
   survive NTP steps. Wall-clock timestamps, where needed, are the
   caller's business (e.g. report headers via [Unix.gettimeofday]). *)
let now_s () = Kaskade_util.Mclock.now_s ()

let close (o : open_span) ~stop =
  {
    name = o.o_name;
    attrs = List.rev o.o_attrs;
    start_s = o.o_start;
    duration_s = stop -. o.o_start;
    children = List.rev o.o_children;
  }

(* Every span minted while a request context is ambient carries the
   trace id as a plain attribute — one [Domain.DLS.get] per span, only
   while collecting. Explicit ["trace"] attrs win (a caller replaying
   foreign spans keeps their ids). *)
let stamp_ctx attrs =
  match Tracectx.current () with
  | Some id when not (List.mem_assoc "trace" attrs) -> ("trace", id) :: attrs
  | _ -> attrs

let with_span ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some st ->
    let attrs = stamp_ctx attrs in
    let o =
      { o_name = name; o_attrs = List.rev attrs; o_start = now_s () -. st.epoch; o_children = [] }
    in
    st.stack <- o :: st.stack;
    let finish () =
      let stop = now_s () -. st.epoch in
      (* Pop up to and including [o] — defensive against a thunk that
         escapes with spans still open. *)
      (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
      let closed = close o ~stop in
      match st.stack with
      | parent :: _ -> parent.o_children <- closed :: parent.o_children
      | [] -> st.roots <- closed :: st.roots
    in
    (match f () with
    | result ->
      finish ();
      result
    | exception e ->
      finish ();
      raise e)

let add_attr k v =
  match !current with
  | Some { stack = o :: _; _ } -> o.o_attrs <- (k, v) :: o.o_attrs
  | _ -> ()

let record_span ?(attrs = []) ~name ~start_s ~stop_s () =
  match !current with
  | None -> ()
  | Some st ->
    let closed =
      {
        name;
        attrs = stamp_ctx attrs;
        start_s = start_s -. st.epoch;
        duration_s = stop_s -. start_s;
        children = [];
      }
    in
    (match st.stack with
    | parent :: _ -> parent.o_children <- closed :: parent.o_children
    | [] -> st.roots <- closed :: st.roots)

(* Pool fan-outs surface as pre-timed leaf spans with the executing
   domain recorded — worker 0 is the calling domain, the rest ran on
   spawned workers. The observer fires on the calling domain after
   the join (see [Pool.set_morsel_observer]), so this composes with
   the single-domain collector. Morsel spans are labelled with the
   morsel index and its index range, not the worker's position in the
   fan-out: under work stealing a worker's spans are whatever morsels
   it claimed, and the range is the only stable name for them. *)
let () =
  Kaskade_util.Pool.set_morsel_observer
    (Some
       (fun ~worker ~workers ~morsel ~morsels ~lo ~hi ~start_s ~stop_s ->
         if !current <> None then
           record_span
             ~attrs:
               [ ("domain", string_of_int worker);
                 ("domains", string_of_int workers);
                 ("morsel", Printf.sprintf "%d/%d" morsel morsels);
                 ("range", Printf.sprintf "[%d,%d)" lo hi) ]
             ~name:"pool.morsel" ~start_s ~stop_s ()))

let collect f =
  if enabled () then invalid_arg "Trace.collect: already collecting";
  let st = { epoch = now_s (); stack = []; roots = [] } in
  current := Some st;
  match f () with
  | result ->
    current := None;
    (result, List.rev st.roots)
  | exception e ->
    current := None;
    raise e

let rec pp_indented depth ppf (s : span) =
  Format.fprintf ppf "%s%s  %.3fms%s@."
    (String.make (2 * depth) ' ')
    s.name (s.duration_s *. 1000.0)
    (String.concat "" (List.map (fun (k, v) -> "  " ^ k ^ "=" ^ v) s.attrs));
  List.iter (pp_indented (depth + 1) ppf) s.children

let pp ppf s = pp_indented 0 ppf s

