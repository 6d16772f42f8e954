open Kaskade_graph
open Kaskade_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let homo_schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ]

(* Build a homogeneous digraph from an edge list. *)
let graph_of_edges ?(n = 0) edges =
  let n =
    List.fold_left (fun acc (s, d) -> Stdlib.max acc (Stdlib.max s d + 1)) n edges
  in
  let b = Builder.create homo_schema in
  for _ = 1 to n do
    ignore (Builder.add_vertex b ~vtype:"V" ())
  done;
  List.iter (fun (s, d) -> ignore (Builder.add_edge b ~src:s ~dst:d ~etype:"E" ())) edges;
  Graph.freeze b

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let test_count_k_walks_line () =
  let g = graph_of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (float 1e-9)) "3 walks of length 1" 3.0 (Paths.count_k_walks g ~k:1);
  Alcotest.(check (float 1e-9)) "2 walks of length 2" 2.0 (Paths.count_k_walks g ~k:2);
  Alcotest.(check (float 1e-9)) "1 walk of length 3" 1.0 (Paths.count_k_walks g ~k:3);
  Alcotest.(check (float 1e-9)) "no length-4 walk" 0.0 (Paths.count_k_walks g ~k:4)

let test_count_k_walks_cycle () =
  let g = graph_of_edges ~n:2 [ (0, 1); (1, 0) ] in
  (* Each vertex starts exactly one k-walk around the 2-cycle. *)
  Alcotest.(check (float 1e-9)) "k=5 on 2-cycle" 2.0 (Paths.count_k_walks g ~k:5)

(* Brute-force walk count via adjacency-matrix power, for the property
   test. *)
let brute_walks g k =
  let n = Graph.n_vertices g in
  let a = Array.make_matrix n n 0.0 in
  Graph.iter_edges g (fun ~eid:_ ~src ~dst ~etype:_ -> a.(src).(dst) <- a.(src).(dst) +. 1.0);
  let mul x y =
    let r = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for l = 0 to n - 1 do
        if x.(i).(l) <> 0.0 then
          for j = 0 to n - 1 do
            r.(i).(j) <- r.(i).(j) +. (x.(i).(l) *. y.(l).(j))
          done
      done
    done;
    r
  in
  let rec power m e = if e = 1 then m else mul m (power m (e - 1)) in
  let p = if k = 0 then Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) else power a k in
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 p

let prop_k_walks_match_matrix_power =
  QCheck.Test.make ~name:"count_k_walks = 1^T A^k 1" ~count:40
    QCheck.(triple (2 -- 10) (0 -- 25) (1 -- 4))
    (fun (n, m, k) ->
      let rng = Kaskade_util.Prng.create ((n * 1000) + m + k) in
      let edges = List.init m (fun _ -> (Kaskade_util.Prng.int rng n, Kaskade_util.Prng.int rng n)) in
      let g = graph_of_edges ~n edges in
      abs_float (Paths.count_k_walks g ~k -. brute_walks g k) < 1e-6)

let lineage_schema =
  Schema.define ~vertices:[ "Job"; "File" ]
    ~edges:[ ("Job", "WRITES_TO", "File"); ("File", "IS_READ_BY", "Job") ]

let small_lineage () =
  let b = Builder.create lineage_schema in
  let j = Array.init 3 (fun _ -> Builder.add_vertex b ~vtype:"Job" ()) in
  let f = Array.init 2 (fun _ -> Builder.add_vertex b ~vtype:"File" ()) in
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(0) ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:j.(0) ~dst:f.(1) ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:f.(0) ~dst:j.(1) ~etype:"IS_READ_BY" ());
  ignore (Builder.add_edge b ~src:f.(1) ~dst:j.(1) ~etype:"IS_READ_BY" ());
  ignore (Builder.add_edge b ~src:f.(1) ~dst:j.(2) ~etype:"IS_READ_BY" ());
  Graph.freeze b

let test_typed_walks () =
  let g = small_lineage () in
  (* Job->File->Job 2-walks: j0 has 2 writes; f0 -> j1, f1 -> {j1, j2}:
     total 3 walks. *)
  Alcotest.(check (float 1e-9)) "typed 2-walks" 3.0
    (Paths.count_k_walks_between g ~k:2 ~src_type:0 ~dst_type:0)

let test_2hop_pairs_dedup () =
  let g = small_lineage () in
  (* Distinct (job, job) pairs: (j0,j1) [via two files] and (j0,j2). *)
  check_int "deduped pairs" 2 (Paths.count_2hop_pairs g ~src_type:0 ~dst_type:0)

let test_simple_paths_bounded () =
  let g = graph_of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check_int "3 simple 2-paths on a 3-cycle" 3 (Paths.count_simple_paths_bounded g ~k:2 ~limit:100);
  check_int "limit respected" 2 (Paths.count_simple_paths_bounded g ~k:2 ~limit:2)

(* ------------------------------------------------------------------ *)
(* Label propagation                                                   *)

(* Two directed triangles joined by nothing: labels converge within
   each component. *)
let test_label_prop_components () =
  let g = graph_of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  let labels = Label_prop.run g ~passes:10 in
  check_bool "triangle 1 uniform" true (labels.(0) = labels.(1) && labels.(1) = labels.(2));
  check_bool "triangle 2 uniform" true (labels.(3) = labels.(4) && labels.(4) = labels.(5));
  check_bool "components differ" true (labels.(0) <> labels.(3))

let test_label_prop_deterministic () =
  let g = graph_of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  let a = Label_prop.run g ~passes:7 in
  let b = Label_prop.run g ~passes:7 in
  Alcotest.(check (array int)) "same labels" a b

let test_label_prop_isolated () =
  let g = graph_of_edges ~n:3 [ (0, 1) ] in
  let labels = Label_prop.run g ~passes:5 in
  check_int "isolated keeps own label" 2 labels.(2)

let test_community_sizes () =
  let labels = [| 0; 0; 1; 0; 1 |] in
  let sizes = Label_prop.community_sizes labels in
  check_int "community 0" 3 (Hashtbl.find sizes 0);
  check_int "community 1" 2 (Hashtbl.find sizes 1)

let test_largest_community () =
  (* Selection logic on hand-assigned labels (the LP output itself is
     covered by the convergence tests above). *)
  let g = graph_of_edges ~n:7 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 6); (6, 3) ] in
  let labels = [| 9; 9; 9; 4; 4; 4; 4 |] in
  let label, members = Label_prop.largest_community g ~labels () in
  check_int "largest label" 4 label;
  check_int "largest size" 4 (List.length members);
  Alcotest.(check (list int)) "members" [ 3; 4; 5; 6 ] members

let test_largest_community_typed () =
  let b = Builder.create lineage_schema in
  let j0 = Builder.add_vertex b ~vtype:"Job" () in
  let f0 = Builder.add_vertex b ~vtype:"File" () in
  let f1 = Builder.add_vertex b ~vtype:"File" () in
  let j1 = Builder.add_vertex b ~vtype:"Job" () in
  ignore (Builder.add_edge b ~src:j0 ~dst:f0 ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:j0 ~dst:f1 ~etype:"WRITES_TO" ());
  ignore (Builder.add_edge b ~src:f0 ~dst:j1 ~etype:"IS_READ_BY" ());
  let g = Graph.freeze b in
  let labels = Label_prop.run g ~passes:5 in
  let _, members = Label_prop.largest_community g ~labels ~count_type:0 () in
  check_bool "members nonempty" true (members <> [])

(* ------------------------------------------------------------------ *)
(* Degree distribution                                                 *)

let test_degree_report () =
  let g = graph_of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  let r = Degree_dist.of_graph g in
  check_int "n" 4 r.Degree_dist.n;
  check_int "max degree" 3 r.Degree_dist.max_degree;
  check_bool "ccdf nonempty" true (r.Degree_dist.ccdf <> [])

let test_degree_report_typed () =
  let g = small_lineage () in
  let r = Degree_dist.of_type g 0 in
  check_int "jobs counted" 3 r.Degree_dist.n;
  check_int "job max out" 2 r.Degree_dist.max_degree

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_k_walks_match_matrix_power ]

let () =
  Alcotest.run "kaskade_algo"
    [
      ( "paths",
        [
          Alcotest.test_case "walks on a line" `Quick test_count_k_walks_line;
          Alcotest.test_case "walks on a cycle" `Quick test_count_k_walks_cycle;
          Alcotest.test_case "typed walks" `Quick test_typed_walks;
          Alcotest.test_case "2-hop pairs deduped" `Quick test_2hop_pairs_dedup;
          Alcotest.test_case "bounded simple paths" `Quick test_simple_paths_bounded;
        ] );
      ( "label_prop",
        [
          Alcotest.test_case "component convergence" `Quick test_label_prop_components;
          Alcotest.test_case "deterministic" `Quick test_label_prop_deterministic;
          Alcotest.test_case "isolated vertex" `Quick test_label_prop_isolated;
          Alcotest.test_case "community sizes" `Quick test_community_sizes;
          Alcotest.test_case "largest community (Q8)" `Quick test_largest_community;
          Alcotest.test_case "largest community typed" `Quick test_largest_community_typed;
        ] );
      ( "degree_dist",
        [
          Alcotest.test_case "report" `Quick test_degree_report;
          Alcotest.test_case "typed report" `Quick test_degree_report_typed;
        ] );
      ("properties", qcheck_cases);
    ]
