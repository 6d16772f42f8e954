(* Chrome trace-event output. The format wants a flat event list with
   integer-microsecond timestamps; the span tree's nesting is conveyed
   twice — implicitly by "X" event containment on each thread track,
   and explicitly by span_id/parent_id args so tooling can rebuild the
   tree without relying on timestamps. *)

let us_of_s s = int_of_float (Float.round (s *. 1e6))

(* Worker-domain spans name their domain in the "domain" attribute
   (Trace.record_span via the Pool morsel observer); domain 0 is the
   calling domain. Everything else ran on the calling domain too. *)
let tid_of_span (s : Trace.span) =
  match List.assoc_opt "domain" s.attrs with
  | Some d -> (match int_of_string_opt d with Some n when n >= 0 -> n + 1 | _ -> 1)
  | None -> 1

let to_chrome ?(process_name = "kaskade") spans =
  let next_id = ref 0 in
  let events = ref [] in
  (* reverse order *)
  let tids = ref [] in
  let rec emit parent (s : Trace.span) =
    incr next_id;
    let id = !next_id in
    let tid = tid_of_span s in
    if not (List.mem tid !tids) then tids := tid :: !tids;
    let args =
      ("span_id", Report.Int id)
      :: (match parent with None -> [] | Some p -> [ ("parent_id", Report.Int p) ])
      @ List.map (fun (k, v) -> (k, Report.Str v)) s.attrs
    in
    events :=
      Report.Obj
        [ ("name", Report.Str s.name);
          ("ph", Report.Str "X");
          ("ts", Report.Int (us_of_s s.start_s));
          ("dur", Report.Int (max 0 (us_of_s s.duration_s)));
          ("pid", Report.Int 1);
          ("tid", Report.Int tid);
          ("args", Report.Obj args) ]
      :: !events;
    List.iter (emit (Some id)) s.children
  in
  List.iter (emit None) spans;
  let meta name tid value =
    Report.Obj
      [ ("name", Report.Str name);
        ("ph", Report.Str "M");
        ("pid", Report.Int 1);
        ("tid", Report.Int tid);
        ("args", Report.Obj [ ("name", Report.Str value) ]) ]
  in
  let thread_meta =
    List.sort compare !tids
    |> List.map (fun tid ->
           meta "thread_name" tid (if tid = 1 then "main" else Printf.sprintf "worker %d" (tid - 1)))
  in
  Report.Obj
    [ ("traceEvents",
       Report.List ((meta "process_name" 1 process_name :: thread_meta) @ List.rev !events));
      ("displayTimeUnit", Report.Str "ms") ]

let to_chrome_string ?process_name spans = Report.to_string (to_chrome ?process_name spans)
