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
   braces do not count. *)
let block sc =
  let buf = Buffer.create 64 in
  let rec go depth quoted =
    match Scan.peek sc with
    | None -> Scan.error sc "unterminated { block"
    | Some '}' when depth = 0 && not quoted -> Scan.advance sc
    | Some c ->
        Buffer.add_char buf c;
        Scan.advance sc;
        match c with
        | '\'' -> go depth (not quoted)
        | '{' when not quoted -> go (depth + 1) quoted
        | '}' when not quoted -> go (depth - 1) quoted
        | _ -> go depth quoted
  in
  go 0 false;
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
