(** Plain-text serialization of property graphs (schema + vertices +
    edges + properties), so real datasets can be loaded instead of the
    synthetic generators. Line-oriented format, stable across
    versions:

    {v
    kaskade-graph 1
    vtype <name>
    etype <src-type> <name> <dst-type>
    v <id> <type> [key=T:value ...]
    e <src> <dst> <type> [key=T:value ...]
    v}

    where [T] is one of [i] (int), [f] (float), [s] (percent-encoded
    string), [b] (bool), [n] (null). Vertex ids must be dense and in
    order (they are re-checked at load). *)

val to_string : Graph.t -> string
val save : Graph.t -> string -> unit
(** [save g path]. Crash-atomic: the bytes go to [<path>.tmp], are
    fsynced, and rename into place — a crash mid-save leaves the old
    file intact, never a torn prefix. *)

exception Format_error of string * int
(** Message and 1-based line number. *)

val of_string : string -> Graph.t
(** Raises [Format_error] on any malformed input: a first line other
    than the magic, an unparsable number, bool or [%]-escape, an
    unknown or duplicate type, or an edge the schema rejects. *)

val load : string -> Graph.t
(** [load path]. *)
