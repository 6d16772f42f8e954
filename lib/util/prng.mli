(** Deterministic pseudo-random number generation.

    All dataset generators and property-based scaffolding in this
    repository draw from this seeded SplitMix64 generator so that every
    experiment is reproducible bit-for-bit from its seed. *)

type t
(** Mutable PRNG state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of SplitMix64. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples from a Zipf distribution with exponent [s]
    over ranks [1..n], by inverted-CDF rejection (Devroye). Used to
    produce power-law out-degrees. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] is the number of failures before the first success
    of a Bernoulli([p]) trial; [p] is clamped to (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val split : t -> t
(** Derive an independent generator (for parallel sub-streams). *)
