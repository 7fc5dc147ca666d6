type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(* Null < numbers < strings < bools; ints and floats interleave numerically *)
let class_rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3

(* Int-vs-float comparison must be exact: rounding the int to a double
   first merges adjacent ints above 2^53 and makes the numeric order
   non-transitive (Int (2^53) = Float 2^53. = Int (2^53+1) while the two
   ints differ), which breaks sorting and hash-join keying. Compare in
   the integer domain instead; NaN keeps [Float.compare]'s convention
   (equal to itself, below every number). *)
let compare_int_float a b =
  if Float.is_nan b then 1
  else if b >= 0x1p62 then -1 (* every int is below 2^62 *)
  else if b < -0x1p62 then 1
  else
    let fl = Float.floor b in
    let il = int_of_float fl in
    (* exact: |fl| <= 2^62 and integral *)
    if a < il then -1 else if a > il then 1 else if fl = b then 0 else -1

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int a, Int b -> Stdlib.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> compare_int_float a b
  | Float a, Int b -> -compare_int_float b a
  | Str a, Str b -> String.compare a b
  | Bool a, Bool b -> Bool.compare a b
  | _, _ -> Stdlib.compare (class_rank a) (class_rank b)

(* Equality is [compare] agreement, so Int 1 = Float 1.0: a sort by
   [compare] followed by a pairwise [equal] walk (Relation.equal_unordered)
   can never disagree with the order it sorted by. *)
let equal a b = compare a b = 0

let ty = function
  | Null -> None
  | Int _ -> Some Ty.Int
  | Float _ -> Some Ty.Float
  | Str _ -> Some Ty.Str
  | Bool _ -> Some Ty.Bool

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

(* The shortest of 15, 16 or 17 significant digits that reads back to the
   same double (17 always does), with a '.' or exponent so the text lexes
   as a float again. [%g]'s six digits would ship [0.1234567] to a remote
   site as [0.123457]. *)
let float_literal f =
  if not (Float.is_finite f) then float_to_string f
  else
    let s =
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15
      else
        let s16 = Printf.sprintf "%.16g" f in
        if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_literal = function
  | Str s -> quote s
  | Float f -> float_literal f
  | (Null | Int _ | Bool _) as v -> to_string v

let of_literal_exn s =
  let n = String.length s in
  if n = 0 then invalid_arg "Value.of_literal_exn: empty"
  else if String.uppercase_ascii s = "NULL" then Null
  else if String.uppercase_ascii s = "TRUE" then Bool true
  else if String.uppercase_ascii s = "FALSE" then Bool false
  else if s.[0] = '\'' then
    if n >= 2 && s.[n - 1] = '\'' then
      let body = String.sub s 1 (n - 2) in
      let buf = Buffer.create (String.length body) in
      let rec loop i =
        if i < String.length body then begin
          if body.[i] = '\'' && i + 1 < String.length body && body.[i + 1] = '\''
          then begin
            Buffer.add_char buf '\'';
            loop (i + 2)
          end
          else begin
            Buffer.add_char buf body.[i];
            loop (i + 1)
          end
        end
      in
      loop 0;
      Str (Buffer.contents buf)
    else invalid_arg "Value.of_literal_exn: unterminated string"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> invalid_arg ("Value.of_literal_exn: " ^ s))

(* Keys are class-prefixed strings so values of distinct classes never
   collide; Int and Float share the numeric class because SQL equality
   compares them numerically.

   Keys must be exact. Routing an Int through string_of_float would fold
   integers above 2^53 onto their nearest double, and a [%g] rendering
   folds floats that differ after the sixth digit. So an integral Float in
   the OCaml int range takes the Int's decimal key (Int 5 and Float 5.0
   match), and any other float its exact hex rendering ("%h" always
   contains an 'x', so it can never equal a decimal integer key). A string
   holding a NUL byte is escaped under its own prefix, so no key contains
   NUL and composite keys can join components with it. *)
let canonical = function
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      Int (int_of_float f)
  | v -> v

let key v =
  match canonical v with
  | Null -> "z"
  | Int i -> "n" ^ string_of_int i
  | Float f -> "n" ^ Printf.sprintf "%h" f
  | Str s -> if String.contains s '\000' then "e" ^ String.escaped s else "s" ^ s
  | Bool true -> "bt"
  | Bool false -> "bf"

let row_key vs = String.concat "\000" (List.map key vs)

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* one hash table for structural keys: the hash join's and every table's
   lookup map, so a probe allocates no key *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash v = Hashtbl.hash (canonical v)
end)

let class_bit v = match class_rank v with 0 -> 0 | r -> 1 lsl r

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ -> None

let as_int = function Int i -> Some i | Null | Float _ | Str _ | Bool _ -> None

let size_bytes = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> String.length s
