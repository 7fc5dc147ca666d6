module Scan = Sqlcore.Scan

exception Error of string * int * int

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

let tokenize input =
  let sc = Scan.create input in
  let out = ref [] in
  let emit tok tline tcol = out := { Token.tok; tline; tcol } :: !out in
  (try
     let rec loop () =
       Scan.skip_ws_and_comments sc;
       let tline = Scan.line sc and tcol = Scan.column sc in
       match Scan.peek sc with
       | None -> emit Token.Eof tline tcol
       | Some c when Scan.is_ident_start c ->
           emit (Token.Ident (Scan.take_while sc Scan.is_ident_char)) tline tcol;
           loop ()
       | Some c when Scan.is_digit c ->
           emit (number sc) tline tcol;
           loop ()
       | Some '\'' ->
           emit (Token.Str (Scan.quoted_string sc)) tline tcol;
           loop ()
       | Some _ ->
           emit (Token.Sym (symbol sc)) tline tcol;
           loop ()
     in
     loop ()
   with Scan.Error (msg, l, c) -> raise (Error (msg, l, c)));
  List.rev !out
