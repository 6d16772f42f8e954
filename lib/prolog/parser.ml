exception Parse_error of string

type clause = { head : Term.t; body : Term.t; nvars : int }

type assoc = Xfx | Xfy | Yfx

let infix_ops =
  [ (":-", (1200, Xfx));
    (";", (1100, Xfy));
    ("->", (1050, Xfy));
    (",", (1000, Xfy));
    ("=", (700, Xfx));
    ("is", (700, Xfx));
    (">", (700, Xfx));
    (">=", (700, Xfx));
    ("+", (500, Yfx));
    ("-", (500, Yfx));
    ("^", (200, Xfy)) ]

type state = {
  mutable toks : Lexer.token list;
  var_ids : (string, int) Hashtbl.t;
  mutable var_order : (string * int) list;
  mutable next_var : int;
}

let make_state toks = { toks; var_ids = Hashtbl.create 8; var_order = []; next_var = 0 }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let fresh_var st =
  let id = st.next_var in
  st.next_var <- id + 1;
  id

let var_id st name =
  if String.equal name "_" then fresh_var st
  else begin
    match Hashtbl.find_opt st.var_ids name with
    | Some id -> id
    | None ->
      let id = fresh_var st in
      Hashtbl.add st.var_ids name id;
      st.var_order <- (name, id) :: st.var_order;
      id
  end

(* Tokens that can begin a term — used to decide whether an operator
   atom is being applied prefix or stands alone. *)
let starts_term = function
  | Lexer.ATOM _ | Lexer.VAR _ | Lexer.INT _ | Lexer.LPAREN | Lexer.LBRACKET -> true
  | _ -> false

let rec parse st max_prec =
  let left, left_prec = parse_primary st max_prec in
  parse_infix st left left_prec max_prec

and parse_infix st left left_prec max_prec =
  match peek st with
  | Lexer.COMMA when max_prec >= 1000 ->
    advance st;
    let right = parse st 1000 in
    parse_infix st (Term.Compound (",", [| left; right |])) 1000 max_prec
  | Lexer.ATOM name -> begin
    match List.assoc_opt name infix_ops with
    | Some (prec, assoc) when prec <= max_prec ->
      let left_max = match assoc with Yfx -> prec | Xfx | Xfy -> prec - 1 in
      let right_max = match assoc with Xfy -> prec | Xfx | Yfx -> prec - 1 in
      if left_prec > left_max then left
      else begin
        advance st;
        let right = parse st right_max in
        parse_infix st (Term.Compound (name, [| left; right |])) prec max_prec
      end
    | _ -> left
  end
  | _ -> left

and parse_primary st max_prec =
  match peek st with
  | Lexer.INT n ->
    advance st;
    (Term.Int n, 0)
  | Lexer.VAR name ->
    advance st;
    (Term.Var (var_id st name), 0)
  | Lexer.LPAREN ->
    advance st;
    let t = parse st 1200 in
    (match peek st with
    | Lexer.RPAREN ->
      advance st;
      (t, 0)
    | tok -> fail "expected ')', found %s" (Lexer.pp_token tok))
  | Lexer.LBRACKET ->
    advance st;
    (parse_list st, 0)
  | Lexer.ATOM name -> begin
    advance st;
    match peek st with
    | Lexer.LPAREN ->
      (* No space allowed between functor and '(' in real Prolog; our
         lexer drops whitespace so we accept it — harmless here. *)
      advance st;
      let args = parse_args st in
      (Term.Compound (name, Array.of_list args), 0)
    | Lexer.INT n when name = "-" ->
      (* Negative integer literal. *)
      advance st;
      (Term.Int (-n), 0)
    | tok when name = "\\+" && max_prec >= 900 && starts_term tok ->
      let arg = parse st 899 in
      (Term.Compound (name, [| arg |]), 900)
    | _ -> (Term.Atom name, 0)
  end
  | tok -> fail "unexpected token %s" (Lexer.pp_token tok)

and parse_args st =
  let first = parse st 999 in
  let rec more acc =
    match peek st with
    | Lexer.COMMA ->
      advance st;
      let t = parse st 999 in
      more (t :: acc)
    | Lexer.RPAREN ->
      advance st;
      List.rev acc
    | tok -> fail "expected ',' or ')' in argument list, found %s" (Lexer.pp_token tok)
  in
  more [ first ]

and parse_list st =
  match peek st with
  | Lexer.RBRACKET ->
    advance st;
    Term.nil
  | _ ->
    let first = parse st 999 in
    let rec more acc =
      match peek st with
      | Lexer.COMMA ->
        advance st;
        let t = parse st 999 in
        more (t :: acc)
      | Lexer.BAR ->
        advance st;
        let tail = parse st 999 in
        (match peek st with
        | Lexer.RBRACKET ->
          advance st;
          List.fold_left (fun tl h -> Term.cons h tl) tail acc
        | tok -> fail "expected ']' after list tail, found %s" (Lexer.pp_token tok))
      | Lexer.RBRACKET ->
        advance st;
        List.fold_left (fun tl h -> Term.cons h tl) Term.nil acc
      | tok -> fail "expected ',', '|' or ']' in list, found %s" (Lexer.pp_token tok)
    in
    more [ first ]

let parse_query src =
  let st = make_state (Lexer.tokenize src) in
  let t = parse st 1200 in
  (match peek st with
  | Lexer.EOF | Lexer.DOT -> ()
  | tok -> fail "trailing input after term: %s" (Lexer.pp_token tok));
  (t, List.rev st.var_order)

let clause_of_term t =
  let head, body =
    match t with
    | Term.Compound (":-", [| h; b |]) -> (h, b)
    | other -> (other, Term.Atom "true")
  in
  (match head with
  | Term.Atom _ | Term.Compound _ -> ()
  | _ -> fail "clause head must be an atom or compound term: %s" (Term.to_string head));
  { head; body; nvars = Term.max_var t + 1 }

let parse_program src =
  let toks = Lexer.tokenize src in
  let rec split acc current = function
    | [] -> if current = [] then List.rev acc else fail "missing final '.' in program"
    | Lexer.DOT :: rest -> split (List.rev current :: acc) [] rest
    | Lexer.EOF :: _ -> if current = [] then List.rev acc else fail "missing final '.' in program"
    | tok :: rest -> split acc (tok :: current) rest
  in
  let clause_toks = split [] [] toks in
  List.map
    (fun toks ->
      let st = make_state (toks @ [ Lexer.EOF ]) in
      let t = parse st 1200 in
      (match peek st with
      | Lexer.EOF -> ()
      | tok -> fail "trailing input in clause: %s" (Lexer.pp_token tok));
      clause_of_term t)
    clause_toks
