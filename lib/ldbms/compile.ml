(* Once-per-statement compilation of WHERE predicates and projection
   expressions, assembled from {!Eval}'s own primitives so compiled and
   interpreted evaluation agree.

   {!compile_row} turns an [Ast.expr] into a [Row.t -> Value.t] closure
   with every column reference resolved to its index up front — the
   per-row [Schema.find_indices] walk (a linear scan with case-insensitive
   compares) disappears from the hot loop. It returns [None] whenever the
   expression needs machinery the closure cannot carry: a column that does
   not resolve to exactly one local index (outer references and
   ambiguities must keep the interpreter's exact error behaviour), any
   subquery, or an aggregate node.

   One node is not a transcription of the interpreter: an IN list whose
   items are all constants of one comparable class (numbers, strings or
   booleans; NULL items allowed) becomes a hashed membership test built
   here, once. A semijoin-reduced MOVE ships [col IN (k1, ..., kK)] with
   K growing with the data, and the interpreter's linear scan made that
   filter O(N*K); the hashed test makes it O(N + K), and its numeric
   probe allocates nothing. It must return exactly what
   {!Eval.in_values} returns and raise what it raises; that agreement is
   pinned by the differential fuzz in [test_compile], not by
   construction. A needle of another class defers to [Eval.in_values]
   itself, which raises the interpreter's error at the first non-NULL
   item. *)

module Ast = Sqlfront.Ast
open Sqlcore

let ( let* ) = Option.bind

(* ---- hashed IN-list membership ------------------------------------------ *)

module Int_set = Hashtbl.Make (Int)
module Float_set = Hashtbl.Make (Float)
module String_set = Hashtbl.Make (String)

(* The non-NULL items of a constant IN list, keyed as {!Value.key} keys
   them so that set membership is exactly [Value.compare] equality: an
   Int, and an integral Float in the int range, key on the int (Int 5 and
   Float 5.0 meet; ints above 2^53 stay apart); any other Float keys on
   the float under [Float.equal], which like [Float.compare] makes NaN
   equal to itself. Only the table the list's class needs is built. *)
type members =
  | No_members  (** empty or all-NULL list: every non-NULL needle misses *)
  | Numbers of unit Int_set.t * unit Float_set.t
  | Strings of unit String_set.t
  | Bools of bool * bool  (** [(holds TRUE, holds FALSE)] *)

type probe = Hit | Miss | Other_class

let integral x = Float.is_integer x && x >= -0x1p62 && x < 0x1p62

(* [None] when the non-NULL items span more than one comparable class *)
let members_of values =
  let items = List.filter (fun v -> not (Value.is_null v)) values in
  let all p = List.for_all p items in
  let count p = List.length (List.filter p items) in
  let keyed_on_int = function
    | Value.Int _ -> true
    | Value.Float x -> integral x
    | _ -> false
  in
  match items with
  | [] -> Some No_members
  | (Value.Int _ | Value.Float _) :: _
    when all (function Value.Int _ | Value.Float _ -> true | _ -> false) ->
      let ints = Int_set.create (count keyed_on_int) in
      let floats = Float_set.create (count (fun v -> not (keyed_on_int v))) in
      List.iter
        (function
          | Value.Int n -> Int_set.replace ints n ()
          | Value.Float x when integral x ->
              Int_set.replace ints (int_of_float x) ()
          | Value.Float x -> Float_set.replace floats x ()
          | _ -> ())
        items;
      Some (Numbers (ints, floats))
  | Value.Str _ :: _ when all (function Value.Str _ -> true | _ -> false) ->
      let strings = String_set.create (List.length items) in
      List.iter
        (function Value.Str s -> String_set.replace strings s () | _ -> ())
        items;
      Some (Strings strings)
  | Value.Bool _ :: _ when all (function Value.Bool _ -> true | _ -> false) ->
      Some (Bools (List.mem (Value.Bool true) items, List.mem (Value.Bool false) items))
  | _ -> None

(* [needle] is not NULL *)
let probe members needle =
  let found b = if b then Hit else Miss in
  match members, needle with
  | No_members, _ -> Miss
  | Numbers (ints, _), Value.Int n -> found (Int_set.mem ints n)
  | Numbers (ints, floats), Value.Float x ->
      found
        (if integral x then Int_set.mem ints (int_of_float x)
         else Float_set.mem floats x)
  | Strings strings, Value.Str s -> found (String_set.mem strings s)
  | Bools (t, f), Value.Bool b -> found (if b then t else f)
  | _ -> Other_class

let all_some xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* x = x in
      Some (x :: acc))
    xs (Some [])

let rec compile_row schema (expr : Ast.expr) : (Row.t -> Value.t) option =
  match expr with
  | Ast.Lit v -> Some (fun _ -> v)
  | Ast.Col { qualifier; name } -> (
      match Schema.find_indices schema ?qualifier name with
      | [ i ] -> Some (fun row -> row.(i))
      | [] | _ :: _ :: _ -> None)
  | Ast.Binop (Ast.And, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      (* both sides always evaluate — Kleene AND, no short-circuit *)
      Some (fun row -> Eval.logic_and (fa row) (fb row))
  | Ast.Binop (Ast.Or, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.logic_or (fa row) (fb row))
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.comparison op (fa row) (fb row))
  | Ast.Binop (Ast.Concat, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.concat (fa row) (fb row))
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.arith op (fa row) (fb row))
  | Ast.Unop (Ast.Not, a) ->
      let* fa = compile_row schema a in
      Some (fun row -> Eval.logic_not (fa row))
  | Ast.Unop (Ast.Neg, a) ->
      let* fa = compile_row schema a in
      Some
        (fun row ->
          match fa row with
          | Value.Null -> Value.Null
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | v -> raise (Eval.Type_error ("negation of " ^ Value.to_string v)))
  | Ast.Is_null { arg; negated } ->
      let* fa = compile_row schema arg in
      Some
        (fun row ->
          let v = fa row in
          Value.Bool (if negated then not (Value.is_null v) else Value.is_null v))
  | Ast.Like { arg; pattern; negated } ->
      let* fa = compile_row schema arg in
      Some
        (fun row ->
          match fa row with
          | Value.Null -> Value.Null
          | Value.Str s ->
              Eval.negate_tv negated (Value.Bool (Like.sql_like ~pattern s))
          | v -> raise (Eval.Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.In_list { arg; items; negated } -> (
      let* fa = compile_row schema arg in
      let hashed =
        let* vs = all_some (List.map constant items) in
        let* members = members_of vs in
        Some (vs, members)
      in
      match hashed with
      | Some (vs, members) ->
          (* the three outcomes are fixed per statement, so a probe
             allocates nothing *)
          let hit = Eval.negate_tv negated (Value.Bool true) in
          let miss =
            Eval.negate_tv negated
              (if List.exists Value.is_null vs then Value.Null
               else Value.Bool false)
          in
          let unknown = Eval.negate_tv negated Value.Null in
          (* over the whole list, Eval.in_values raises for a needle of
             another class at the first non-NULL item: keep just that one *)
          let witness =
            Option.to_list (List.find_opt (fun v -> not (Value.is_null v)) vs)
          in
          Some
            (fun row ->
              match fa row with
              | Value.Null -> unknown
              | v -> (
                  match probe members v with
                  | Hit -> hit
                  | Miss -> miss
                  | Other_class ->
                      Eval.negate_tv negated (Eval.in_values v witness)))
      | None ->
          let* fis = all_some (List.map (compile_row schema) items) in
          Some
            (fun row ->
              let v = fa row in
              let vs = List.map (fun fi -> fi row) fis in
              Eval.negate_tv negated (Eval.in_values v vs)))
  | Ast.Between { arg; lo; hi; negated } ->
      let* fa = compile_row schema arg in
      let* flo = compile_row schema lo in
      let* fhi = compile_row schema hi in
      Some
        (fun row ->
          let v = fa row in
          let lo = flo row and hi = fhi row in
          Eval.negate_tv negated
            (Eval.logic_and (Eval.comparison Ast.Ge v lo)
               (Eval.comparison Ast.Le v hi)))
  | Ast.Agg _ | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ -> None

(* The value of an expression that references no column — it compiles
   against the empty schema — evaluated once; [None] for anything else,
   and for a constant whose evaluation raises (it must keep raising per
   row). Folds the [(- 5)] a negative key prints as back into a literal. *)
and constant item =
  let* f = compile_row [] item in
  try Some (f [||]) with Eval.Type_error _ -> None
