(** Typed error taxonomy for the facade's [_result] entry points: the
    closed set of ways a Kaskade operation can fail that callers are
    expected to handle, with every internal exception class mapped
    onto it ({!of_exn}) so resource-governance failures surface as
    values, not escaped exceptions. *)

type t =
  | Parse of { message : string; line : int; col : int }
      (** The query text is not well-formed (from
          [Qparser.Parse_error], lexical errors included); positions
          are 1-based. *)
  | Plan of string
      (** The query is well-formed but cannot be planned or evaluated:
          semantic errors, unknown views/procedures, inference
          failures. *)
  | Budget_exhausted of { stage : Kaskade_util.Budget.stage; detail : string }
      (** A resource budget (deadline, step or row cap) fired; [stage]
          is the pipeline stage whose checkpoint noticed. The
          operation had no effect beyond wasted work. *)
  | Refresh_failed of { view : string; reason : string }
      (** A view refresh crashed. The catalog entry is back in
          [Stale] (with its delta intact) — never half-built — and the
          view's circuit breaker has recorded the failure. *)
  | Overloaded of { resource : string; capacity : int; in_use : int }
      (** Admission control shed the request: [resource] (e.g.
          ["sessions"], ["queue"]) was at [capacity] with [in_use]
          holders. The request had no effect; retry after backoff. *)
  | Io of string
      (** File loading/saving problems ([Gio.Format_error],
          [Kaskade_store.Codec.Corrupt], [End_of_file] from a
          truncated read, [Sys_error], [Unix.Unix_error]) and injected
          internal faults. *)

exception Refresh_error of { view : string; reason : string }
(** Raised by the facade's {e raising} refresh paths (e.g.
    [Kaskade.Update.refresh_views]) when a refresh crashes;
    {!of_exn} maps it to {!Refresh_failed}. *)

exception Overload of { resource : string; capacity : int; in_use : int }
(** Raised by admission control ({!Kaskade_serve.Session}) when a
    bounded resource is exhausted; {!of_exn} maps it to
    {!Overloaded}. *)

val to_string : t -> string

val label : t -> string
(** Constructor name in snake case — stable key for logs/metrics. *)

val of_exn : exn -> t option
(** Classify an exception; [None] for genuinely unexpected ones
    (assertion failures, [Out_of_memory], ...) which callers should
    let crash. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching exactly the exceptions {!of_exn} classifies
    — anything else propagates. The building block of
    [Kaskade.query]. *)
