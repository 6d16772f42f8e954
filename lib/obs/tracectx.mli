(** Request-scoped trace contexts — the correlation ids that tie one
    served query's telemetry together across layers. A context is a
    16-hex-digit id (same shape as {!Qlog.hash_query}) carried in
    domain-local storage for a dynamic extent: while set, {!Trace}
    stamps it onto every span (including the [pool.morsel] children
    replayed from worker fan-outs) and
    {!Qlog.add} records it, so a query arriving over the wire groups
    its qlog record, its Chrome-trace spans and its server response
    under a single id.

    Contexts are deliberately dumb strings: the wire protocol passes
    them verbatim ([Q trace=<id> ...]), clients may mint their own,
    and a missing context costs one [Domain.DLS.get] per span. *)

val mint : ?session:string -> unit -> string
(** Mint a fresh id: FNV-1a mix of a process-global counter, the pid,
    the wall clock, and the optional serving-session tag. 16 lowercase
    hex digits. *)

val is_valid : string -> bool
(** True iff the string has the canonical shape (exactly 16 lowercase
    hex digits) — what the wire layer accepts from clients. *)

val current : unit -> string option
(** The ambient context of the calling domain, if any. *)

val with_ctx : string -> (unit -> 'a) -> 'a
(** Run the thunk with the given id as the ambient context, restoring
    the previous one afterwards (exception-safe; nesting shadows). *)

val with_minted : ?session:string -> (string -> 'a) -> 'a
(** Run the thunk under the ambient context if one is already set,
    otherwise mint a fresh id (tagged with [session]) and install it
    for the thunk's extent. The thunk receives the effective id —
    this is the facade's inherit-or-mint entry point. *)
