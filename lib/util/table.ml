type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render ?(aligns = []) ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> if i < ncols then widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row in
  measure header;
  List.iter measure rows;
  let align_of i = match List.nth_opt aligns i with Some a -> a | None -> Left in
  let line ch =
    let parts = Array.to_list (Array.mapi (fun _ w -> String.make (w + 2) ch) widths) in
    "+" ^ String.concat "+" parts ^ "+"
  in
  let render_row row =
    let cells = List.mapi (fun i cell -> " " ^ pad (align_of i) widths.(i) cell ^ " ") row in
    "|" ^ String.concat "|" cells ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-');
  Buffer.contents buf

let print ?aligns ~header rows = print_endline (render ?aligns ~header rows)

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf


let fmt_sci x = Printf.sprintf "%.1e" x
