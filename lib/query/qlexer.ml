type token =
  | IDENT of string
  | KEYWORD of string
  | INT_LIT of int
  | FLOAT_LIT of float
  | STRING_LIT of string
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | COMMA | DOT | COLON | STAR | DOTDOT
  | ARROW_RIGHT
  | DASH
  | LEFT_ARROW_DASH
  | PLUS | SLASH
  | EQ | NE | LT | LE | GT | GE
  | EOF

exception Lex_error of string * int

type pos = { line : int; col : int }

(* Line/column (1-based) of a byte offset. Builds the line-start table
   on each call — used on error paths and once per tokenize, where a
   single O(n) scan is in the noise. *)
let pos_of_offset src =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
  let arr = Array.of_list (List.rev !starts) in
  fun off ->
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if arr.(mid) <= off then lo := mid else hi := mid - 1
    done;
    { line = !lo + 1; col = off - arr.(!lo) + 1 }

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "AS"; "MATCH"; "RETURN"; "AND"; "OR"; "NOT";
    "SUM"; "AVG"; "MIN"; "MAX"; "COUNT"; "TRUE"; "FALSE"; "NULL"; "CALL"; "ORDER"; "LIMIT"; "DISTINCT" ]

let pp_token = function
  | IDENT s -> Printf.sprintf "ident(%s)" s
  | KEYWORD s -> s
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | STRING_LIT s -> Printf.sprintf "'%s'" s
  | LPAREN -> "(" | RPAREN -> ")"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | COMMA -> "," | DOT -> "." | COLON -> ":" | STAR -> "*" | DOTDOT -> ".."
  | ARROW_RIGHT -> "->"
  | DASH -> "-"
  | LEFT_ARROW_DASH -> "<-"
  | PLUS -> "+" | SLASH -> "/"
  | EQ -> "=" | NE -> "<>" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | EOF -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize_pos src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  (* Offset where the token being scanned started — set at the top of
     every loop iteration, so [emit] mid-branch records the token's
     first byte, not wherever the scan has advanced to. *)
  let tok_start = ref 0 in
  let emit t = toks := (t, !tok_start) :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    tok_start := !i;
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && peek 1 = Some '-' then begin
      (* SQL line comment *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      let upper = String.uppercase_ascii word in
      if List.mem upper keywords then emit (KEYWORD upper) else emit (IDENT word)
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      (* A '.' followed by a digit makes a float; '..' is a range. *)
      if !i < n && src.[!i] = '.' && peek 1 <> Some '.' && (match peek 1 with Some d -> is_digit d | None -> false)
      then begin
        incr i;
        while !i < n && is_digit src.[!i] do incr i done;
        emit (FLOAT_LIT (float_of_string (String.sub src start (!i - start))))
      end
      else
        match int_of_string_opt (String.sub src start (!i - start)) with
        | Some v -> emit (INT_LIT v)
        | None -> raise (Lex_error ("integer literal out of range", start))
    end
    else if c = '\'' then begin
      let start = !i in
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\'' then begin
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if not !closed then raise (Lex_error ("unterminated string literal", start));
      emit (STRING_LIT (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "->" -> emit ARROW_RIGHT; i := !i + 2
      | "<-" -> emit LEFT_ARROW_DASH; i := !i + 2
      | "<=" -> emit LE; i := !i + 2
      | ">=" -> emit GE; i := !i + 2
      | "<>" -> emit NE; i := !i + 2
      | "!=" -> emit NE; i := !i + 2
      | ".." -> emit DOTDOT; i := !i + 2
      | _ ->
        (match c with
        | '(' -> emit LPAREN
        | ')' -> emit RPAREN
        | '[' -> emit LBRACKET
        | ']' -> emit RBRACKET
        | ',' -> emit COMMA
        | '.' -> emit DOT
        | ':' -> emit COLON
        | '*' -> emit STAR
        | '-' -> emit DASH
        | '+' -> emit PLUS
        | '/' -> emit SLASH
        | '=' -> emit EQ
        | '<' -> emit LT
        | '>' -> emit GT
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !i)));
        incr i
    end
  done;
  tok_start := n;
  emit EOF;
  let pos = pos_of_offset src in
  List.rev_map (fun (t, off) -> (t, pos off)) !toks

let tokenize src = List.map fst (tokenize_pos src)
