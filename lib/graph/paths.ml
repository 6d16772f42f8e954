
let count_k_walks g ~k =
  let n = Graph.n_vertices g in
  (* walks.(v) = number of walks of the current length ending at v. *)
  let walks = Array.make n 1.0 in
  for _ = 1 to k do
    let next = Array.make n 0.0 in
    for v = 0 to n - 1 do
      if walks.(v) > 0.0 then
        Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> next.(dst) <- next.(dst) +. walks.(v))
    done;
    Array.blit next 0 walks 0 n
  done;
  Array.fold_left ( +. ) 0.0 walks

let count_k_walks_between g ~k ~src_type ~dst_type =
  let n = Graph.n_vertices g in
  let walks = Array.make n 0.0 in
  Array.iter (fun v -> walks.(v) <- 1.0) (Graph.vertices_of_type g src_type);
  for _ = 1 to k do
    let next = Array.make n 0.0 in
    for v = 0 to n - 1 do
      if walks.(v) > 0.0 then
        Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> next.(dst) <- next.(dst) +. walks.(v))
    done;
    Array.blit next 0 walks 0 n
  done;
  Array.fold_left (fun acc v -> acc +. walks.(v)) 0.0 (Graph.vertices_of_type g dst_type)

let count_2hop_pairs g ~src_type ~dst_type =
  let total = ref 0 in
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun u ->
      Hashtbl.reset seen;
      Graph.iter_out g u (fun ~dst:mid ~etype:_ ~eid:_ ->
          Graph.iter_out g mid (fun ~dst:w ~etype:_ ~eid:_ ->
              if Graph.vertex_type g w = dst_type && not (Hashtbl.mem seen w) then begin
                Hashtbl.add seen w ();
                incr total
              end)))
    (Graph.vertices_of_type g src_type);
  !total

exception Limit_reached

let count_simple_paths_bounded g ~k ~limit =
  let n = Graph.n_vertices g in
  let on_path = Array.make n false in
  let count = ref 0 in
  let rec dfs v remaining =
    if remaining = 0 then begin
      incr count;
      if !count >= limit then raise Limit_reached
    end
    else
      Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
          if not on_path.(dst) then begin
            on_path.(dst) <- true;
            dfs dst (remaining - 1);
            on_path.(dst) <- false
          end)
  in
  (try
     for v = 0 to n - 1 do
       on_path.(v) <- true;
       dfs v k;
       on_path.(v) <- false
     done
   with Limit_reached -> ());
  !count
