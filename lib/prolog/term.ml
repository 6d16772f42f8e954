type t =
  | Atom of string
  | Int of int
  | Var of int
  | Compound of string * t array

let atom s = Atom s
let int n = Int n

let compound f args = match args with [] -> Atom f | _ -> Compound (f, Array.of_list args)

let nil = Atom "[]"
let cons h t = Compound (".", [| h; t |])
let list_of items = List.fold_right cons items nil

let to_list t =
  let rec go acc = function
    | Atom "[]" -> Some (List.rev acc)
    | Compound (".", [| h; tl |]) -> go (h :: acc) tl
    | _ -> None
  in
  go [] t

let functor_of = function
  | Atom name -> Some (name, 0)
  | Compound (name, args) -> Some (name, Array.length args)
  | Int _ | Var _ -> None

let args_of = function Compound (_, args) -> args | _ -> [||]

let rec max_var = function
  | Atom _ | Int _ -> -1
  | Var i -> i
  | Compound (_, args) -> Array.fold_left (fun acc a -> Stdlib.max acc (max_var a)) (-1) args

let rec rename ~offset = function
  | (Atom _ | Int _) as t -> t
  | Var i -> Var (i + offset)
  | Compound (f, args) -> Compound (f, Array.map (rename ~offset) args)

let order_rank = function Var _ -> 0 | Int _ -> 1 | Atom _ -> 2 | Compound _ -> 3

let rec compare a b =
  match (a, b) with
  | Var x, Var y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Atom x, Atom y -> String.compare x y
  | Compound (f, xs), Compound (g, ys) ->
    let c = Stdlib.compare (Array.length xs) (Array.length ys) in
    if c <> 0 then c
    else begin
      let c = String.compare f g in
      if c <> 0 then c
      else begin
        let result = ref 0 in
        (try
           Array.iteri
             (fun i x ->
               let c = compare x ys.(i) in
               if c <> 0 then begin
                 result := c;
                 raise Exit
               end)
             xs
         with Exit -> ());
        !result
      end
    end
  | _ -> Stdlib.compare (order_rank a) (order_rank b)

let needs_quotes s =
  String.length s = 0
  || begin
       let ok_unquoted =
         (s.[0] >= 'a' && s.[0] <= 'z')
         && String.for_all
              (fun c ->
                (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
              s
       in
       let symbolic = String.for_all (fun c -> String.contains "+-*/\\^<>=~:.?@#&" c) s in
       (not ok_unquoted) && (not symbolic) && s <> "[]" && s <> "!" && s <> ";" && s <> ","
     end

let pp_atom ppf s = if needs_quotes s then Format.fprintf ppf "'%s'" s else Format.pp_print_string ppf s

let rec pp ppf t =
  match t with
  | Atom s -> pp_atom ppf s
  | Int n -> Format.pp_print_int ppf n
  | Var i -> Format.fprintf ppf "_G%d" i
  | Compound (".", [| _; _ |]) -> pp_list ppf t
  | Compound (",", [| a; b |]) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | Compound (f, args) ->
    Format.fprintf ppf "%a(" pp_atom f;
    Array.iteri (fun i a -> if i > 0 then Format.fprintf ppf ", %a" pp a else pp ppf a) args;
    Format.fprintf ppf ")"

and pp_list ppf t =
  Format.fprintf ppf "[";
  let rec go first = function
    | Atom "[]" -> ()
    | Compound (".", [| h; tl |]) ->
      if not first then Format.fprintf ppf ", ";
      pp ppf h;
      go false tl
    | other -> Format.fprintf ppf " | %a" pp other
  in
  go true t;
  Format.fprintf ppf "]"

let to_string t = Format.asprintf "%a" pp t
