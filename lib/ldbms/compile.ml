(* Once-per-statement compilation of WHERE predicates and projection
   expressions, assembled from {!Eval}'s own primitives so compiled and
   interpreted evaluation agree by construction.

   {!compile_row} turns an [Ast.expr] into a [Row.t -> Value.t] closure
   with every column reference resolved to its index up front — the
   per-row [Schema.find_indices] walk (a linear scan with case-insensitive
   compares) disappears from the hot loop. It returns [None] whenever the
   expression needs machinery the closure cannot carry: a column that does
   not resolve to exactly one local index (outer references and
   ambiguities must keep the interpreter's exact error behaviour), any
   subquery, or an aggregate node. *)

module Ast = Sqlfront.Ast
open Sqlcore

let ( let* ) = Option.bind

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
  | Ast.In_list { arg; items; negated } ->
      let* fa = compile_row schema arg in
      let* fis =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* fi = compile_row schema item in
            Some (fi :: acc))
          items (Some [])
      in
      Some
        (fun row ->
          let v = fa row in
          let vs = List.map (fun fi -> fi row) fis in
          Eval.negate_tv negated (Eval.in_values v vs))
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
