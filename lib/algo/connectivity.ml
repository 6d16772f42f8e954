open Kaskade_graph
open Kaskade_util

let components g =
  let uf = Union_find.create (Graph.n_vertices g) in
  Graph.iter_edges g (fun ~eid:_ ~src ~dst ~etype:_ -> Union_find.union uf src dst);
  uf

let n_components g = Union_find.count (components g)

let sources g =
  let out = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if Graph.in_degree g v = 0 then out := v :: !out
  done;
  !out

let sinks g =
  let out = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if Graph.out_degree g v = 0 then out := v :: !out
  done;
  !out
