type t = {
  db : Db.t;
  binds : Bindings.t;
  mutable steps : int;
  step_limit : int;
  checkpoint : unit -> unit;
  mutable frame_counter : int;
}

exception Budget_exceeded of int
exception Runtime_error of string

(* Control-flow signals. *)
exception Found_one
exception Cut_signal of int

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let create ?(step_limit = 50_000_000) ?(checkpoint = ignore) db =
  { db; binds = Bindings.create (); steps = 0; step_limit; checkpoint; frame_counter = 0 }

let steps t = t.steps
let reset_steps t = t.steps <- 0

(* What [solve_goal] and [builtin] below define. *)
let builtins =
  [ ("true", 0); ("fail", 0); ("false", 0); ("!", 0); (",", 2); (";", 2); ("->", 2); ("\\+", 1);
    ("not", 1); ("=", 2); ("is", 2); (">", 2); (">=", 2); ("integer", 1); ("between", 3);
    ("setof", 3) ]

let new_frame t =
  t.frame_counter <- t.frame_counter + 1;
  t.frame_counter

let tick t =
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then raise (Budget_exceeded t.step_limit);
  (* External deadline probe, amortized: resolution steps are far
     cheaper than a clock read, so the checkpoint only runs every 4096
     steps. *)
  if t.steps land 4095 = 0 then t.checkpoint ()

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let rec eval_arith t term =
  match Bindings.walk t.binds term with
  | Term.Int n -> n
  | Term.Var _ -> err "arithmetic: unbound variable"
  | Term.Atom a -> err "arithmetic: atom %s is not a number" a
  | Term.Compound ("+", [| a; b |]) -> eval_arith t a + eval_arith t b
  | Term.Compound ("-", [| a; b |]) -> eval_arith t a - eval_arith t b
  | Term.Compound (op, _) -> err "arithmetic: unknown operator %s" op

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)

(* [solve_goal t goal cut_id sk]: invoke [sk] once per solution.
   Returning normally = no (more) solutions on this branch. Callers
   set a trail mark before introducing choice points and undo after
   each alternative. *)
let rec solve_goal t goal cut_id (sk : unit -> unit) : unit =
  tick t;
  let goal = Bindings.walk t.binds goal in
  match goal with
  | Term.Var _ -> err "call: unbound goal"
  | Term.Int n -> err "call: %d is not callable" n
  | Term.Atom "true" -> sk ()
  | Term.Atom ("fail" | "false") -> ()
  | Term.Atom "!" ->
    sk ();
    raise (Cut_signal cut_id)
  | Term.Compound (",", [| a; b |]) -> solve_goal t a cut_id (fun () -> solve_goal t b cut_id sk)
  | Term.Compound (";", [| Term.Compound ("->", [| c; th |]); el |]) -> solve_ite t c th el cut_id sk
  | Term.Compound ("->", [| c; th |]) -> solve_ite t c th (Term.Atom "fail") cut_id sk
  | Term.Compound (";", [| a; b |]) ->
    let m = Bindings.mark t.binds in
    solve_goal t a cut_id sk;
    Bindings.undo_to t.binds m;
    solve_goal t b cut_id sk
  | Term.Compound ("\\+", [| g |]) | Term.Compound ("not", [| g |]) ->
    if not (provable t g) then sk ()
  | Term.Atom name -> solve_call t goal name 0 sk
  | Term.Compound (name, args) -> begin
    match builtin t name (Array.length args) with
    | Some f -> f args sk
    | None -> solve_call t goal name (Array.length args) sk
  end

and solve_ite t cond th el cut_id sk =
  let m = Bindings.mark t.binds in
  let frame = new_frame t in
  let found = ref false in
  (try solve_goal t cond frame (fun () ->
       found := true;
       raise Found_one)
   with
  | Found_one -> ()
  | Cut_signal id when id = frame -> ());
  if !found then solve_goal t th cut_id sk
  else begin
    Bindings.undo_to t.binds m;
    solve_goal t el cut_id sk
  end

and provable t g =
  let m = Bindings.mark t.binds in
  let frame = new_frame t in
  let found = ref false in
  (try solve_goal t g frame (fun () ->
       found := true;
       raise Found_one)
   with
  | Found_one -> ()
  | Cut_signal id when id = frame -> ());
  Bindings.undo_to t.binds m;
  !found

and solve_call t goal name arity sk =
  match builtin t name arity with
  | Some f -> f (Term.args_of goal) sk
  | None -> (
    (* An undefined predicate has no clauses, so it fails. *)
    let frame = new_frame t in
    try
      List.iter
        (fun (c : Parser.clause) ->
          tick t;
          let m = Bindings.mark t.binds in
          (* Rename the clause apart with fresh variables. *)
          let base = Bindings.fresh t.binds in
          Bindings.reserve t.binds (base + c.nvars);
          let head = Term.rename ~offset:base c.head in
          if Bindings.unify t.binds head goal then begin
            let body = Term.rename ~offset:base c.body in
            solve_goal t body frame sk
          end;
          Bindings.undo_to t.binds m)
        (Db.clauses t.db name arity)
    with Cut_signal id when id = frame -> ())

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)

and builtin t name arity : (Term.t array -> (unit -> unit) -> unit) option =
  match (name, arity) with
  | "=", 2 -> Some (fun args sk -> unify_then t args.(0) args.(1) sk)
  | "is", 2 ->
    Some
      (fun args sk ->
        let v = eval_arith t args.(1) in
        unify_then t args.(0) (Term.Int v) sk)
  | ">", 2 -> Some (arith_builtin t ( > ))
  | ">=", 2 -> Some (arith_builtin t ( >= ))
  | "integer", 1 ->
    Some
      (fun args sk ->
        match Bindings.walk t.binds args.(0) with Term.Int _ -> sk () | _ -> ())
  | "between", 3 ->
    Some
      (fun args sk ->
        let lo = eval_arith t args.(0) and hi = eval_arith t args.(1) in
        match Bindings.walk t.binds args.(2) with
        | Term.Int x -> if x >= lo && x <= hi then sk ()
        | Term.Var _ ->
          for x = lo to hi do
            tick t;
            unify_then t args.(2) (Term.Int x) sk
          done
        | _ -> ())
  | "setof", 3 ->
    Some
      (fun args sk ->
        (* Simplified setof: strip ^/2 witnesses, sort + dedupe, fail
           on the empty set (ISO behaviour Kaskade's rules rely on). *)
        let rec strip g =
          match Bindings.walk t.binds g with
          | Term.Compound ("^", [| _; inner |]) -> strip inner
          | other -> other
        in
        let results = collect_all t args.(0) (strip args.(1)) in
        let sorted = List.sort_uniq Term.compare results in
        if sorted <> [] then unify_then t args.(2) (Term.list_of sorted) sk)
  | _ -> None

and arith_builtin t pred args sk =
  if pred (eval_arith t args.(0)) (eval_arith t args.(1)) then sk ()

and unify_then t a b sk =
  let m = Bindings.mark t.binds in
  if Bindings.unify t.binds a b then sk ();
  Bindings.undo_to t.binds m

and collect_all t template goal =
  let results = ref [] in
  let m = Bindings.mark t.binds in
  let frame = new_frame t in
  (try
     solve_goal t goal frame (fun () ->
         results := Bindings.resolve t.binds template :: !results)
   with Cut_signal id when id = frame -> ());
  Bindings.undo_to t.binds m;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Public driving API                                                  *)

let all_solutions t src =
  let goal, vars = Parser.parse_query src in
  (* Inject the parsed goal above any variables the engine has used. *)
  let base = Bindings.fresh t.binds in
  Bindings.reserve t.binds (base + Term.max_var goal + 1);
  let goal = Term.rename ~offset:base goal in
  let row = Term.list_of (List.map (fun (_, id) -> Term.Var (id + base)) vars) in
  List.map
    (fun r -> List.combine (List.map fst vars) (Option.get (Term.to_list r)))
    (collect_all t row goal)
