open Kaskade_graph

type freshness = Fresh | Stale of Graph.Overlay.op list | Rebuilding

let freshness_label = function
  | Fresh -> "fresh"
  | Stale ops -> Printf.sprintf "stale(%d ops)" (List.length ops)
  | Rebuilding -> "rebuilding"


type entry = {
  materialized : Materialize.materialized;
  size_edges : int;
  size_vertices : int;
  mutable freshness : freshness;
}

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 16 }

let add t (m : Materialize.materialized) =
  let entry =
    {
      materialized = m;
      size_edges = Graph.n_edges m.graph;
      size_vertices = Graph.n_vertices m.graph;
      freshness = Fresh;
    }
  in
  Hashtbl.replace t.entries (View.name m.view) entry

let find_by_name t name = Hashtbl.find_opt t.entries name
let find t view = find_by_name t (View.name view)
let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> View.compare a.materialized.view b.materialized.view)

let mark_stale t ops =
  if ops <> [] then
    Hashtbl.iter
      (fun name e ->
        match e.freshness with
        | Fresh -> e.freshness <- Stale ops
        | Stale prior -> e.freshness <- Stale (prior @ ops)
        | Rebuilding ->
          invalid_arg
            (Printf.sprintf "Catalog.mark_stale: view %s has a refresh in flight" name))
      t.entries

let begin_refresh e =
  match e.freshness with
  | Fresh -> []
  | Stale ops ->
    e.freshness <- Rebuilding;
    ops
  | Rebuilding -> invalid_arg "Catalog.begin_refresh: already rebuilding"

let abort_refresh e ops =
  match e.freshness with
  | Rebuilding -> e.freshness <- Stale ops
  | f ->
    invalid_arg
      (Printf.sprintf "Catalog.abort_refresh: view %s is %s, not rebuilding"
         (View.name e.materialized.view) (freshness_label f))

let finish_refresh t e (m : Materialize.materialized) =
  let name = View.name e.materialized.view in
  (match Hashtbl.find_opt t.entries name with
  | Some cur when cur == e -> ()
  | _ -> invalid_arg ("Catalog.finish_refresh: entry not in catalog: " ^ name));
  Hashtbl.replace t.entries name
    {
      materialized = m;
      size_edges = Graph.n_edges m.graph;
      size_vertices = Graph.n_vertices m.graph;
      freshness = Fresh;
    }

let n_stale t =
  Hashtbl.fold (fun _ e acc -> match e.freshness with Fresh -> acc | _ -> acc + 1) t.entries 0
