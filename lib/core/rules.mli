(** Kaskade's rule library (paper §IV): constraint mining rules
    (implicit-constraint derivation, Listings 2 and 6) and view
    templates (Listings 3 and 5), written in Prolog and evaluated by
    [Kaskade_prolog.Engine]. The library is extensible exactly as the
    paper describes — additional rules are ordinary Prolog text, as
    long as they call only the engine's builtins
    ([Kaskade_prolog.Engine.builtins]).

    Deviations from the paper's listings, documented here and in
    DESIGN.md:
    - [schemaKHopPath/3] uses a bounded, cycle-permitting recursion
      (K must be bound). The paper's Listing 2 tracks a type trail and
      therefore forbids revisiting a vertex *type*, which would reject
      the very K in {4, 6, 8, 10} job-to-job connectors its own §IV-B
      example enumerates.
    - [queryKHopPath/3] carries a visited-trail so cyclic MATCH
      patterns terminate. On the paper's (acyclic) patterns it derives
      the same facts as Listing 6.
    - Templates additionally check [queryReturned/1] on connector
      endpoints, matching the §IV-B example ("the only vertices
      projected out of the MATCH clause"). *)

val mining_rules : string
(** Schema + query constraint mining rules, with the [member/2] they
    call. *)

val all : string
(** [mining_rules] followed by the connector and summarizer view
    templates. *)

val unconstrained_templates : string
(** Ablation variant: the same view templates with the query
    constraints removed — enumeration driven by the schema alone
    (bounded by [maxK]); mirrors the paper's discussion of the
    [M^k] search space without constraint injection. *)
