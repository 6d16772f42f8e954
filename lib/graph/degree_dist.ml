open Kaskade_util

type report = {
  scope : string;
  n : int;
  max_degree : int;
  ccdf : (int * int) list;
  alpha : float;
  r2 : float;
}

let of_degrees scope degrees =
  let alpha, r2 = Stats.power_law_fit degrees in
  {
    scope;
    n = Array.length degrees;
    max_degree = Array.fold_left Stdlib.max 0 degrees;
    ccdf = Stats.ccdf degrees;
    alpha;
    r2;
  }

let of_graph g = of_degrees "all" (Graph.all_out_degrees g)

let of_type g ty = of_degrees (Schema.vertex_type_name (Graph.schema g) ty) (Graph.out_degrees_of_type g ty)

let pp ppf r =
  Format.fprintf ppf "%s: n=%d max_deg=%d alpha=%.2f r2=%.3f" r.scope r.n r.max_degree r.alpha r.r2
