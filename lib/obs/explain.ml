type node = {
  op : string;
  detail : string;
  est_rows : float option;
  mutable actual_rows : int option;
  mutable time_s : float option;
  children : node list;
}

let node ?est_rows ?(detail = "") op children =
  { op; detail; est_rows; actual_rows = None; time_s = None; children }

let set_actual n rows = n.actual_rows <- Some rows

let set_time n dt =
  n.time_s <- Some (match n.time_s with None -> dt | Some prev -> prev +. dt)

let rec iter f n =
  f n;
  List.iter (iter f) n.children

let rec fold f acc n = List.fold_left (fold f) (f acc n) n.children

let find p n =
  let found = ref None in
  (try
     iter
       (fun n ->
         if !found = None && p n then begin
           found := Some n;
           raise Exit
         end)
       n
   with Exit -> ());
  !found

let profiled n = fold (fun acc n -> acc || n.actual_rows <> None || n.time_s <> None) false n

let fmt_est = function
  | None -> ""
  | Some f when Float.abs f < 1e7 -> Printf.sprintf "%.0f" f
  | Some f -> Printf.sprintf "%.3g" f

let fmt_actual = function None -> "" | Some n -> string_of_int n
let fmt_time = function None -> "" | Some t -> Printf.sprintf "%.3fms" (t *. 1000.0)

let render root =
  (* Collect (tree-drawn label, est, actual, time) rows, then pad into
     aligned columns. *)
  let rows = ref [] in
  let rec go prefix branch child_prefix n =
    let label =
      prefix ^ branch ^ n.op ^ (if n.detail = "" then "" else " " ^ n.detail)
    in
    rows := (label, fmt_est n.est_rows, fmt_actual n.actual_rows, fmt_time n.time_s) :: !rows;
    let rec children = function
      | [] -> ()
      | [ last ] -> go child_prefix "└─ " (child_prefix ^ "   ") last
      | c :: rest ->
        go child_prefix "├─ " (child_prefix ^ "│  ") c;
        children rest
    in
    children n.children
  in
  go "" "" "" root;
  let rows = List.rev !rows in
  (* Column width in display cells, not bytes: the tree glyphs are
     multi-byte UTF-8 but single-column, so count code points. *)
  let uwidth s =
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
    !n
  in
  let pad_right w s = s ^ String.make (Stdlib.max 0 (w - uwidth s)) ' ' in
  let pad_left w s = String.make (Stdlib.max 0 (w - uwidth s)) ' ' ^ s in
  let width f = List.fold_left (fun w r -> Stdlib.max w (uwidth (f r))) 0 rows in
  let l1 = (fun (a, _, _, _) -> a) and l2 = (fun (_, b, _, _) -> b) in
  let l3 = (fun (_, _, c, _) -> c) and l4 = (fun (_, _, _, d) -> d) in
  let has_actuals = List.exists (fun r -> l3 r <> "" || l4 r <> "") rows in
  let header =
    if has_actuals then ("operator", "est.rows", "rows", "time") else ("operator", "est.rows", "", "")
  in
  let rows = header :: rows in
  let w1 = Stdlib.max (width l1) 8 and w2 = Stdlib.max (width l2) 8 in
  let w3 = width l3 and w4 = width l4 in
  let buf = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string buf (pad_right w1 (l1 r));
      Buffer.add_string buf "  ";
      Buffer.add_string buf (pad_left w2 (l2 r));
      if has_actuals then begin
        Buffer.add_string buf "  ";
        Buffer.add_string buf (pad_left w3 (l3 r));
        Buffer.add_string buf "  ";
        Buffer.add_string buf (pad_left w4 (l4 r))
      end;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf


let rec to_json n =
  Report.Obj
    [ ("op", Report.Str n.op);
      ("detail", Report.Str n.detail);
      ("est_rows", match n.est_rows with None -> Report.Null | Some f -> Report.num f);
      ("actual_rows", match n.actual_rows with None -> Report.Null | Some r -> Report.Int r);
      ("time_s", match n.time_s with None -> Report.Null | Some t -> Report.Float t);
      ("children", Report.List (List.map to_json n.children)) ]
