(* SplitMix64: fast, high-quality, trivially seedable. Reference:
   Steele, Lea, Flood, "Fast splittable pseudorandom number generators"
   (OOPSLA 2014). *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }


let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* 62 usable bits: keep results non-negative OCaml ints. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max = (max_int / bound) * bound in
  let rec go () =
    let r = next_nonneg t in
    if r < max then r mod bound else go ()
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))


(* Bounded-Pareto inverse CDF on [1, n+1), floored to ranks 1..n. This
   yields P(K = k) ~ k^-s, which is what the power-law degree
   generators need; the continuous approximation avoids both the O(n)
   CDF table and rejection loops. *)
let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if n = 1 then 1
  else begin
    let nf = float_of_int n +. 1.0 in
    let u = Stdlib.max epsilon_float (float t 1.0) in
    let x =
      if abs_float (s -. 1.0) < 1e-9 then exp (u *. log nf)
      else begin
        let om_s = 1.0 -. s in
        let top = exp (om_s *. log nf) in
        exp (log (1.0 +. (u *. (top -. 1.0))) /. om_s)
      end
    in
    Stdlib.min n (Stdlib.max 1 (int_of_float x))
  end

let geometric t ~p =
  let p = if p <= 0.0 then 1e-12 else if p > 1.0 then 1.0 else p in
  if p >= 1.0 then 0
  else begin
    let u = Stdlib.max epsilon_float (float t 1.0) in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let split t = { state = next_int64 t }
