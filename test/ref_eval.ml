(* A minimal reference interpreter for SQL expressions: the oracle the
   compiler's differential tests compare against. It walks the tree on
   every evaluation and looks every name up through the chain of row
   environments each time, where the compiler resolves names once. It is
   built on the same Eval primitives (comparison, Kleene logic, IN
   semantics), so the two agree by construction on those; what it checks
   is everything the compiler adds: name resolution and its errors,
   subquery shapes, aggregates, and the hashed IN-list test. *)
open Sqlcore
module Ast = Sqlfront.Ast
module Eval = Ldbms.Eval

type env = Ldbms.Compile.env = {
  schema : Schema.t;
  row : Row.t;
  outer : env option;
}

type ctx = {
  subquery : env -> Ast.select -> Relation.t;
  group : Row.t list option;  (** the rows [Agg] nodes fold over *)
}

let no_subquery _ _ = failwith "unexpected subquery"
let plain = { subquery = no_subquery; group = None }
let env ?outer schema row = { schema; row; outer }

let rec lookup e ?qualifier name =
  let shown = match qualifier with Some q -> q ^ "." ^ name | None -> name in
  match Schema.find_indices e.schema ?qualifier name with
  | [ i ] -> Row.get e.row i
  | [] -> (
      match e.outer with
      | Some outer -> lookup outer ?qualifier name
      | None -> raise (Eval.Unknown_column shown))
  | _ :: _ :: _ -> raise (Eval.Ambiguous_column shown)

let one_column what r =
  if Array.length r <> 1 then
    raise (Eval.Type_error (what ^ " subquery must return one column"))
  else Row.get r 0

let rec eval ctx e expr =
  let ev = eval ctx e in
  match expr with
  | Ast.Lit v -> v
  | Ast.Col { qualifier; name } -> lookup e ?qualifier name
  | Ast.Binop (Ast.And, a, b) -> Eval.logic_and (ev a) (ev b)
  | Ast.Binop (Ast.Or, a, b) -> Eval.logic_or (ev a) (ev b)
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      Eval.comparison op (ev a) (ev b)
  | Ast.Binop (Ast.Concat, a, b) -> Eval.concat (ev a) (ev b)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
      Eval.arith op (ev a) (ev b)
  | Ast.Unop (Ast.Not, a) -> Eval.logic_not (ev a)
  | Ast.Unop (Ast.Neg, a) -> (
      match ev a with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> raise (Eval.Type_error ("negation of " ^ Value.to_string v)))
  | Ast.Is_null { arg; negated } -> Value.Bool (Value.is_null (ev arg) <> negated)
  | Ast.Like { arg; pattern; negated } -> (
      match ev arg with
      | Value.Null -> Value.Null
      | Value.Str s -> Eval.negate_tv negated (Value.Bool (Like.sql_like ~pattern s))
      | v -> raise (Eval.Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.In_list { arg; items; negated } ->
      let v = ev arg in
      Eval.negate_tv negated (Eval.in_values v (List.map ev items))
  | Ast.Between { arg; lo; hi; negated } ->
      let v = ev arg in
      let lo = ev lo and hi = ev hi in
      Eval.negate_tv negated
        (Eval.logic_and (Eval.comparison Ast.Ge v lo) (Eval.comparison Ast.Le v hi))
  | Ast.Agg { fn; distinct; arg } -> (
      match ctx.group with
      | Some rows -> aggregate ctx e.schema rows fn distinct arg
      | None -> raise (Eval.Type_error "aggregate used outside an aggregate query"))
  | Ast.Scalar_subquery q -> (
      match Relation.rows (ctx.subquery e q) with
      | [] -> Value.Null
      | [ r ] -> one_column "scalar" r
      | _ :: _ :: _ ->
          raise (Eval.Type_error "scalar subquery returned more than one row"))
  | Ast.In_subquery { arg; query; negated } ->
      let v = ev arg in
      let vs = List.map (one_column "IN") (Relation.rows (ctx.subquery e query)) in
      Eval.negate_tv negated (Eval.in_values v vs)
  | Ast.Exists q -> Value.Bool (not (Relation.is_empty (ctx.subquery e q)))

(* an aggregate's argument sees each row of the group alone *)
and aggregate ctx schema rows fn distinct arg =
  let values () =
    match arg with
    | None -> raise (Eval.Type_error "aggregate function needs an argument")
    | Some a ->
        let vs =
          List.filter
            (fun v -> not (Value.is_null v))
            (List.map
               (fun row -> eval { ctx with group = None } (env schema row) a)
               rows)
        in
        if not distinct then vs
        else
          List.rev
            (List.fold_left
               (fun seen v ->
                 if List.exists (fun w -> Value.compare v w = 0) seen then seen
                 else v :: seen)
               [] vs)
  in
  let pick better = function
    | [] -> Value.Null
    | v0 :: vs ->
        List.fold_left (fun a v -> if better (Value.compare v a) then v else a) v0 vs
  in
  let total what vs =
    List.fold_left
      (fun a v ->
        match Value.as_float v with
        | Some f -> a +. f
        | None -> raise (Eval.Type_error (what ^ " of non-numeric value")))
      0.0 vs
  in
  match fn with
  | Ast.Count_star -> Value.Int (List.length rows)
  | Ast.Count -> Value.Int (List.length (values ()))
  | Ast.Min -> pick (fun c -> c < 0) (values ())
  | Ast.Max -> pick (fun c -> c > 0) (values ())
  | Ast.Sum -> (
      match values () with
      | [] -> Value.Null
      | vs when List.for_all (fun v -> Value.as_int v <> None) vs ->
          Value.Int (List.fold_left (fun a v -> a + Option.get (Value.as_int v)) 0 vs)
      | vs -> Value.Float (total "SUM" vs))
  | Ast.Avg -> (
      match values () with
      | [] -> Value.Null
      | vs -> Value.Float (total "AVG" vs /. float_of_int (List.length vs)))
