type t = { input : string; mutable pos : int; mutable line : int; mutable col : int }

exception Error of string * int * int

let create input = { input; pos = 0; line = 1; col = 1 }
let eof t = t.pos >= String.length t.input
let peek t = if eof t then None else Some t.input.[t.pos]

let peek_at t k =
  if t.pos + k >= String.length t.input then None else Some t.input.[t.pos + k]

let peek2 t = peek_at t 1

let advance t =
  if not (eof t) then begin
    (if t.input.[t.pos] = '\n' then begin
       t.line <- t.line + 1;
       t.col <- 1
     end
     else t.col <- t.col + 1);
    t.pos <- t.pos + 1
  end

let line t = t.line
let column t = t.col
let error t msg = raise (Error (msg, t.line, t.col))

let next t =
  match peek t with
  | None -> error t "unexpected end of input"
  | Some c ->
      advance t;
      c

let skip_while t p =
  let rec go () =
    match peek t with
    | Some c when p c ->
        advance t;
        go ()
    | Some _ | None -> ()
  in
  go ()

let take_while t p =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek t with
    | Some c when p c ->
        Buffer.add_char buf c;
        advance t;
        go ()
    | Some _ | None -> ()
  in
  go ();
  Buffer.contents buf

let is_blank = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec skip_ws_and_comments t =
  skip_while t is_blank;
  match peek t, peek2 t with
  | Some '-', Some '-' ->
      skip_while t (fun c -> c <> '\n');
      skip_ws_and_comments t
  | Some '/', Some '*' ->
      advance t;
      advance t;
      let rec close () =
        match peek t, peek2 t with
        | Some '*', Some '/' ->
            advance t;
            advance t
        | None, _ -> error t "unterminated /* comment"
        | Some _, _ ->
            advance t;
            close ()
      in
      close ();
      skip_ws_and_comments t
  | _ -> ()

let quoted_string t =
  (match next t with
  | '\'' -> ()
  | _ -> error t "expected string literal");
  let buf = Buffer.create 16 in
  let rec go () =
    match peek t, peek2 t with
    | Some '\'', Some '\'' ->
        Buffer.add_char buf '\'';
        advance t;
        advance t;
        go ()
    | Some '\'', _ -> advance t
    | Some c, _ ->
        Buffer.add_char buf c;
        advance t;
        go ()
    | None, _ -> error t "unterminated string literal"
  in
  go ();
  Buffer.contents buf

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_alpha c || is_digit c || c = '_'
