(** Degree-distribution reporting for the paper's Fig. 8 (log-log CCDF
    plots with best-fit power-law exponent). *)

type report = {
  scope : string;  (** "all" or a vertex-type name. *)
  n : int;
  max_degree : int;
  ccdf : (int * int) list;  (** (degree, count of vertices with larger degree) *)
  alpha : float;  (** Slope of the log-log CCDF linear fit. *)
  r2 : float;  (** Goodness of that fit; near 1 = power law. *)
}

val of_graph : Graph.t -> report
(** Out-degree distribution over all vertices. *)

val of_type : Graph.t -> int -> report
val pp : Format.formatter -> report -> unit
