(** Minimal blocking client for the {!Wire} line protocol — what the
    bench harness, the test suites, and [kaskade_cli serve --probe] use to
    drive a server in-process or across processes. *)

type t

val connect : string -> t
(** Connect to a server's Unix socket. Raises [Unix.Unix_error] when
    nothing listens there. *)

val request : t -> string -> string list
(** Send one request line and read the full response: any ["| "] row
    lines followed by the terminating [OK]/[ERR] line (always last).
    Raises [End_of_file] if the server hangs up mid-response. *)

val status : string list -> (string * string) list
(** Parsed fields of a response's terminating line ({!Wire.fields});
    [("_status", "ok" | "err")] first. Raises [Invalid_argument] on an
    empty response. *)

val close : t -> unit
