(** Plain-text table rendering for the benchmark harness (paper-style
    rows for every reproduced table and figure). *)

type align = Left | Right

val render : ?aligns:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the rows out in a boxed ASCII table;
    columns default to [Left], numbers read better with [Right]. *)

val print : ?aligns:align list -> header:string list -> string list list -> unit

val fmt_int : int -> string
(** Thousands separators: [fmt_int 1234567 = "1,234,567"]. *)

val fmt_sci : float -> string
(** Scientific notation with two significant decimals, e.g. ["3.1e+06"]. *)
