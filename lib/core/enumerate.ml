open Kaskade_prolog
open Kaskade_views
module Budget = Kaskade_util.Budget
module Metrics = Kaskade_obs.Metrics
module Trace = Kaskade_obs.Trace

let m_runs = Metrics.counter ~help:"View enumerations performed" "enumerate.runs"
let m_candidates = Metrics.counter ~help:"Candidate views produced" "enumerate.candidates"

let m_inference_steps =
  Metrics.counter ~help:"Prolog resolution steps spent enumerating" "enumerate.inference_steps"

type candidate = { view : View.t; bridges : (string * string) option }

type enumeration = {
  candidates : candidate list;
  inference_steps : int;
  facts : Term.t list;
}

let atom_exn = function
  | Term.Atom a -> a
  | t -> invalid_arg ("Enumerate: expected atom, got " ^ Term.to_string t)

let int_exn = function
  | Term.Int n -> n
  | t -> invalid_arg ("Enumerate: expected integer, got " ^ Term.to_string t)

let dedupe candidates =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key = View.name c.view in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    candidates

(* The engine's own step limit is the budget's remaining step
   allowance (when capped), and its periodic checkpoint re-checks the
   budget's deadline — so a budgeted enumeration is bounded in both
   work and wall time, and reports exhaustion as stage [Enumerate]
   rather than leaking [Engine.Budget_exceeded]. *)
let engine_with ?budget schema_rules facts =
  let db = Db.create () in
  Db.load db schema_rules;
  Facts.assert_all db facts;
  match budget with
  | None -> Engine.create db
  | Some b ->
    let step_limit =
      match Budget.remaining_steps b with
      | Some r -> Stdlib.min r 50_000_000
      | None -> 50_000_000
    in
    Engine.create ~step_limit
      ~checkpoint:(fun () -> Budget.check (Some b) Budget.Enumerate)
      db

(* Charge the engine's resolution steps to the budget and translate
   its own step-limit trip into the typed exhaustion. *)
let budgeted ?budget eng f =
  match f () with
  | out ->
    Budget.step ~cost:(Engine.steps eng) budget Budget.Enumerate;
    out
  | exception Engine.Budget_exceeded limit when budget <> None ->
    raise
      (Budget.Exhausted
         {
           stage = Budget.Enumerate;
           detail = Printf.sprintf "enumeration step budget of %d exceeded" limit;
         })

(* Book-keeping shared by both enumeration entry points: counters for
   the metrics registry plus span attributes when a trace collection
   is in flight. *)
let observed (e : enumeration) =
  Metrics.incr m_runs;
  Metrics.incr ~by:(List.length e.candidates) m_candidates;
  Metrics.incr ~by:e.inference_steps m_inference_steps;
  Trace.add_attr "candidates" (string_of_int (List.length e.candidates));
  Trace.add_attr "inference_steps" (string_of_int e.inference_steps);
  e

(* A summarizerRemoveEdges rewrite is only safe when every pattern
   edge is explicitly labeled (unlabeled and variable-length edges may
   traverse any type). *)
let all_edges_labeled summary =
  summary.Kaskade_query.Analyze.var_length_paths = []
  && List.for_all (fun (_, _, et) -> et <> None) summary.Kaskade_query.Analyze.edges

let copies_input schema ~src_type ~dst_type =
  match Kaskade_graph.Schema.edge_defs schema with
  | [ d ] -> d.Kaskade_graph.Schema.src = src_type && d.Kaskade_graph.Schema.dst = dst_type
  | _ -> false

let enumerate ?budget schema query =
  Trace.with_span "enumerate" @@ fun () ->
  Budget.check budget Budget.Enumerate;
  Budget.fault_point Budget.Enumerate ~site:"enumerate";
  let summary = Kaskade_query.Analyze.check schema query in
  let facts = Facts.query_facts schema query @ Facts.schema_facts schema in
  let eng = engine_with ?budget Rules.all facts in
  Engine.reset_steps eng;
  budgeted ?budget eng @@ fun () ->
  let out = ref [] in
  let push view bridges = out := { view; bridges } :: !out in
  (* K-hop connectors (including the same-vertex-type special case),
     except a 1-hop connector over the schema's only edge type: it is
     a deduplicated copy of its input. *)
  List.iter
    (fun sol ->
      let x = atom_exn (List.assoc "X" sol) and y = atom_exn (List.assoc "Y" sol) in
      let xt = atom_exn (List.assoc "XTYPE" sol) and yt = atom_exn (List.assoc "YTYPE" sol) in
      let k = int_exn (List.assoc "K" sol) in
      if not (k = 1 && copies_input schema ~src_type:xt ~dst_type:yt) then
        push (View.Connector (View.K_hop { src_type = xt; dst_type = yt; k })) (Some (x, y)))
    (Engine.all_solutions eng "kHopConnector(X, Y, XTYPE, YTYPE, K)");
  (* Vertex-inclusion summarizer. The Prolog template proposes the
     types the query *mentions*; variable-length segments also
     traverse intermediate types, so close the set under schema-walk
     membership (Rewrite.traversal_types) — keeping only the mentioned
     types would sever the paths the query must follow. Only emitted
     when it actually drops something. *)
  List.iter
    (fun sol ->
      match Term.to_list (List.assoc "TYPES" sol) with
      | Some types ->
        let mentioned = List.map atom_exn types in
        let closed =
          match Rewrite.traversal_types schema query with
          | Some needed -> List.sort_uniq compare (mentioned @ needed)
          | None -> mentioned
        in
        if List.length closed < Kaskade_graph.Schema.n_vertex_types schema then
          push (View.Summarizer (View.Vertex_inclusion closed)) None
      | None -> ())
    (Engine.all_solutions eng "summarizerVertexInclusion(TYPES)");
  (* Edge-removal summarizer, when provably safe. *)
  if all_edges_labeled summary then begin
    let removable =
      List.filter_map
        (fun sol -> Some (atom_exn (List.assoc "ETYPE_REMOVE" sol)))
        (Engine.all_solutions eng "summarizerRemoveEdges(ETYPE_REMOVE)")
    in
    if removable <> [] then
      push (View.Summarizer (View.Edge_removal (List.sort_uniq compare removable))) None
  end;
  observed { candidates = dedupe (List.rev !out); inference_steps = Engine.steps eng; facts }

let enumerate_unconstrained ?budget schema ~max_k =
  Trace.with_span "enumerate_unconstrained" @@ fun () ->
  Budget.check budget Budget.Enumerate;
  Budget.fault_point Budget.Enumerate ~site:"enumerate";
  let facts = Facts.schema_facts schema in
  let eng = engine_with ?budget (Rules.mining_rules ^ Rules.unconstrained_templates) facts in
  Engine.reset_steps eng;
  budgeted ?budget eng @@ fun () ->
  let out = ref [] in
  List.iter
    (fun sol ->
      let xt = atom_exn (List.assoc "XTYPE" sol) and yt = atom_exn (List.assoc "YTYPE" sol) in
      let k = int_exn (List.assoc "K" sol) in
      out :=
        { view = View.Connector (View.K_hop { src_type = xt; dst_type = yt; k }); bridges = None }
        :: !out)
    (Engine.all_solutions eng
       (Printf.sprintf "kHopConnectorNoQuery(XTYPE, YTYPE, %d, K)" max_k));
  observed { candidates = dedupe (List.rev !out); inference_steps = Engine.steps eng; facts }
