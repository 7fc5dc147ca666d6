module Scan = Sqlcore.Scan

exception Error = Scan.Error

(* digits [. digits] [(e|E) [+|-] digits]; a fraction or an exponent
   makes it a float *)
let number sc =
  let digits () = Scan.take_while sc Scan.is_digit in
  let intpart = digits () in
  let frac =
    match Scan.peek sc, Scan.peek2 sc with
    | Some '.', Some c when Scan.is_digit c ->
        Scan.advance sc;
        "." ^ digits ()
    | _ -> ""
  in
  let sign_len =
    match Scan.peek2 sc with Some ('+' | '-') -> 1 | _ -> 0
  in
  let exp =
    match Scan.peek sc, Scan.peek_at sc (1 + sign_len) with
    | Some ('e' | 'E'), Some c when Scan.is_digit c ->
        Scan.advance sc;
        let sign = if sign_len = 1 then String.make 1 (Scan.next sc) else "" in
        "e" ^ sign ^ digits ()
    | _ -> ""
  in
  if frac = "" && exp = "" then Token.Int (int_of_string intpart)
  else Token.Float (float_of_string (intpart ^ frac ^ exp))

let rec symbol sc =
  let two a b = Scan.peek sc = Some a && Scan.peek2 sc = Some b in
  let take2 () =
    Scan.advance sc;
    Scan.advance sc
  in
  if two '<' '=' then begin take2 (); "<=" end
  else if two '>' '=' then begin take2 (); ">=" end
  else if two '<' '>' then begin take2 (); "<>" end
  else if two '!' '=' then begin take2 (); "<>" end
  else if two '|' '|' then begin take2 (); "||" end
  else
    match Scan.peek sc with
    | None -> Scan.error sc "unexpected end of input"
    | Some c -> lone_symbol sc c

and lone_symbol sc c =
  match c with
    | ('(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | '%'
      | ';') ->
        Scan.advance sc;
        String.make 1 c
    | _ -> Scan.error sc (Printf.sprintf "unexpected character %C" c)

(* The text up to the '}' matching an already consumed '{'. Braces nest;
   a quoted literal is copied whole (a doubled '' toggles twice), so its
   braces do not count. A '--' or '/* */' comment is copied whole too, but
   only quotes lose their meaning in it: a "don't" there opens no
   literal, while braces still count, so the one-line [{ ... -- c }]
   closes at its '}'. *)
type block_state = Code | Quoted | Line_comment | Block_comment

let block sc =
  let buf = Buffer.create 64 in
  let take () =
    let c = Scan.next sc in
    Buffer.add_char buf c;
    c
  in
  let rec go depth state =
    match Scan.peek sc, Scan.peek2 sc, state with
    | None, _, _ -> Scan.error sc "unterminated { block"
    | Some '}', _, (Code | Line_comment | Block_comment) when depth = 0 ->
        Scan.advance sc
    | Some '-', Some '-', Code ->
        ignore (take ());
        ignore (take ());
        go depth Line_comment
    | Some '/', Some '*', Code ->
        ignore (take ());
        ignore (take ());
        go depth Block_comment
    | Some '*', Some '/', Block_comment ->
        ignore (take ());
        ignore (take ());
        go depth Code
    | Some _, _, _ -> (
        match take (), state with
        | '\'', Code -> go depth Quoted
        | '\'', Quoted -> go depth Code
        | '\n', Line_comment -> go depth Code
        | '{', (Code | Line_comment | Block_comment) -> go (depth + 1) state
        | '}', (Code | Line_comment | Block_comment) -> go (depth - 1) state
        | _ -> go depth state)
  in
  go 0 Code;
  String.trim (Buffer.contents buf)

let sql_ident = (Scan.is_ident_start, fun sc -> Scan.take_while sc Scan.is_ident_char)

let tokenize ?(ident = sql_ident) input =
  let starts_ident, scan_ident = ident in
  let sc = Scan.create input in
  let rec loop acc =
    Scan.skip_ws_and_comments sc;
    let tline = Scan.line sc and tcol = Scan.column sc in
    let tok =
      match Scan.peek sc with
      | None -> Token.Eof
      | Some c when starts_ident c -> Token.Ident (scan_ident sc)
      | Some c when Scan.is_digit c -> number sc
      | Some '\'' -> Token.Str (Scan.quoted_string sc)
      | Some '{' ->
          Scan.advance sc;
          Token.Block (block sc)
      | Some _ -> Token.Sym (symbol sc)
    in
    let acc = { Token.tok; tline; tcol } :: acc in
    match tok with Token.Eof -> List.rev acc | _ -> loop acc
  in
  loop []
