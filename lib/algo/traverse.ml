open Kaskade_graph
module Scratch = Kaskade_util.Scratch
module Int_vec = Kaskade_util.Int_vec

type dir = Out | In | Both

(* Neighbour iterator: [f u] once per adjacent edge of [v] in
   direction [dir]. *)
let neighbors g dir v f =
  (match dir with
  | Out | Both -> Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> f dst)
  | In -> ());
  match dir with
  | In | Both -> Graph.iter_in g v (fun ~src ~etype:_ ~eid:_ -> f src)
  | Out -> ()

(* [dist] is the result, so it is freshly allocated; the frontier
   queues are scratch vectors reused across calls. *)
let bfs_levels g ~src ?(dir = Out) ?(max_hops = max_int) () =
  let neighbors = neighbors g dir in
  let dist = Array.make (Graph.n_vertices g) (-1) in
  dist.(src) <- 0;
  Scratch.with_vec @@ fun vec_a ->
  Scratch.with_vec @@ fun vec_b ->
  let cur = ref vec_a and next = ref vec_b in
  Int_vec.push !cur src;
  let hop = ref 0 in
  while Int_vec.length !cur > 0 && !hop < max_hops do
    incr hop;
    Int_vec.clear !next;
    let nv = !next in
    Int_vec.iter
      (fun v ->
        neighbors v (fun u ->
            if dist.(u) < 0 then begin
              dist.(u) <- !hop;
              Int_vec.push nv u
            end))
      !cur;
    let tmp = !cur in
    cur := !next;
    next := tmp
  done;
  dist

let reachable_within g ~src ~max_hops ?(dir = Out) () =
  let dist = bfs_levels g ~src ~dir ~max_hops () in
  let out = ref [] in
  for v = Array.length dist - 1 downto 0 do
    if dist.(v) > 0 then out := v :: !out
  done;
  !out

let descendants g ~src ~max_hops = reachable_within g ~src ~max_hops ~dir:Out ()
let ancestors g ~src ~max_hops = reachable_within g ~src ~max_hops ~dir:In ()

let endpoints_in_range g ~src ~lo ~hi ?(dir = Out) () =
  let dist = bfs_levels g ~src ~dir ~max_hops:hi () in
  let out = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if dist.(v) >= lo && dist.(v) <= hi then out := (v, dist.(v)) :: !out
  done;
  !out

let max_timestamp_paths g ~src ~max_hops ~prop =
  let n = Graph.n_vertices g in
  let dist = Array.make n (-1) in
  let best = Array.make n min_int in
  dist.(src) <- 0;
  best.(src) <- 0;
  Scratch.with_vec @@ fun vec_a ->
  Scratch.with_vec @@ fun vec_b ->
  let cur = ref vec_a and next = ref vec_b in
  Int_vec.push !cur src;
  let hop = ref 0 in
  while Int_vec.length !cur > 0 && !hop < max_hops do
    incr hop;
    Int_vec.clear !next;
    let nv = !next in
    Int_vec.iter
      (fun v ->
        Graph.iter_out g v (fun ~dst ~etype:_ ~eid ->
            if dist.(dst) < 0 then begin
              dist.(dst) <- !hop;
              let w =
                match Graph.eprop g eid prop with Some (Value.Int ts) -> ts | _ -> 0
              in
              best.(dst) <- Stdlib.max best.(v) w;
              Int_vec.push nv dst
            end))
      !cur;
    let tmp = !cur in
    cur := !next;
    next := tmp
  done;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if dist.(v) > 0 then out := (v, best.(v)) :: !out
  done;
  !out
