type t = (string, (int, Value.t) Hashtbl.t) Hashtbl.t

let create () : t = Hashtbl.create 8

let set t id key v =
  let col =
    match Hashtbl.find_opt t key with
    | Some col -> col
    | None ->
      let col = Hashtbl.create 256 in
      Hashtbl.add t key col;
      col
  in
  Hashtbl.replace col id v

let get t id key =
  match Hashtbl.find_opt t key with Some col -> Hashtbl.find_opt col id | None -> None

let get_or_null t id key = match get t id key with Some v -> v | None -> Value.Null

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare


let iter_column t key f =
  match Hashtbl.find_opt t key with Some col -> Hashtbl.iter f col | None -> ()

let remap t f =
  let t' : t = Hashtbl.create (Stdlib.max 8 (Hashtbl.length t)) in
  Hashtbl.iter
    (fun key col ->
      let col' = Hashtbl.create (Stdlib.max 16 (Hashtbl.length col)) in
      Hashtbl.iter
        (fun id v ->
          let id' = f id in
          if id' >= 0 then Hashtbl.replace col' id' v)
        col;
      Hashtbl.add t' key col')
    t;
  t'

let entity_props t id =
  Hashtbl.fold
    (fun key col acc -> match Hashtbl.find_opt col id with Some v -> (key, v) :: acc | None -> acc)
    t []
  |> List.sort compare
