type t = { mutable toks : Token.located list }

exception Error = Sqlcore.Scan.Error

let create toks = { toks }

let hd t =
  match t.toks with
  | [] -> { Token.tok = Token.Eof; tline = 0; tcol = 0 }
  | l :: _ -> l

let peek t = (hd t).Token.tok

let peek2 t =
  match t.toks with
  | _ :: l :: _ -> l.Token.tok
  | _ :: [] | [] -> Token.Eof

let advance t = match t.toks with [] -> () | _ :: rest -> t.toks <- rest

let next t =
  let tok = peek t in
  advance t;
  tok

let at_eof t = peek t = Token.Eof

let error t msg =
  let l = hd t in
  raise
    (Error
       ( Printf.sprintf "%s (at %s)" msg (Token.to_string l.Token.tok),
         l.Token.tline,
         l.Token.tcol ))

let run toks f =
  let ts = create toks in
  let r = f ts in
  (match peek ts with
  | Token.Eof -> ()
  | tok -> error ts (Printf.sprintf "trailing input: %s" (Token.to_string tok)));
  r

let at_kw t kw = Token.is_keyword (peek t) kw
let at_kw2 t kw = Token.is_keyword (peek2 t) kw
let at_sym t s = match peek t with Token.Sym x -> String.equal x s | _ -> false

let accept_kw t kw =
  if at_kw t kw then begin
    advance t;
    true
  end
  else false

let accept_sym t s =
  if at_sym t s then begin
    advance t;
    true
  end
  else false

let expect_kw t kw =
  if not (accept_kw t kw) then error t (Printf.sprintf "expected %s" kw)

let expect_sym t s =
  if not (accept_sym t s) then error t (Printf.sprintf "expected '%s'" s)

let ident t =
  match peek t with
  | Token.Ident s ->
      advance t;
      s
  | _ -> error t "expected identifier"
