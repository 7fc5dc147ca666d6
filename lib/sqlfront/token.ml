type t =
  | Ident of string
  | Int of int
  | Float of float
  | Str of string
  | Sym of string
  | Block of string
  | Eof

type located = { tok : t; tline : int; tcol : int }

let equal a b =
  match a, b with
  | Ident x, Ident y -> Sqlcore.Names.equal x y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Sym x, Sym y -> String.equal x y
  | Block x, Block y -> String.equal x y
  | Eof, Eof -> true
  | (Ident _ | Int _ | Float _ | Str _ | Sym _ | Block _ | Eof), _ -> false

let to_string = function
  | Ident s -> s
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> "'" ^ s ^ "'"
  | Sym s -> s
  | Block b -> "{ " ^ b ^ " }"
  | Eof -> "<eof>"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let is_keyword t kw =
  match t with Ident s -> Sqlcore.Names.equal s kw | _ -> false
