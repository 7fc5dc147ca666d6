module Scan = Sqlcore.Scan
module Token = Sqlfront.Token

exception Error of string * int * int

let is_mident_char c = Scan.is_ident_char c || c = '%'
let is_mident_start c = Scan.is_ident_start c || c = '%' || c = '~'

let mident sc =
  let prefix =
    match Scan.peek sc with
    | Some '~' ->
        Scan.advance sc;
        "~"
    | _ -> ""
  in
  let body = Scan.take_while sc is_mident_char in
  if body = "" then Scan.error sc "expected identifier after ~";
  prefix ^ body

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
  | '(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | ';' ->
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
       | Some c when is_mident_start c ->
           emit (Token.Ident (mident sc)) tline tcol;
           loop ()
       | Some c when Scan.is_digit c ->
           emit (Sqlfront.Lexer.number sc) tline tcol;
           loop ()
       | Some '\'' ->
           emit (Token.Str (Scan.quoted_string sc)) tline tcol;
           loop ()
       | Some _ ->
           emit (Token.Sym (symbol sc)) tline tcol;
           loop ()
     in
     loop ()
   with Scan.Error (m, l, c) -> raise (Error (m, l, c)));
  List.rev !out
