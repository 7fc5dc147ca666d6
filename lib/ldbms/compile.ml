(* Once-per-statement compilation of every expression the executor
   evaluates, assembled from {!Eval}'s primitives.

   {!compile} turns an [Ast.expr] into a [Row.t -> Value.t] closure and
   never declines. Every name resolves while compiling: a column of the
   row's own schema to its index, so the per-row [Schema.find_indices]
   walk (a linear scan with case-insensitive compares) stays out of the
   hot loop; any other name to the value of the innermost enclosing row
   that has it. A subquery compiles once per invocation, i.e. once per
   enclosing row, so that value is fixed for the whole compilation. A
   name that resolves nowhere, or to two columns of one scope, compiles
   to a closure that raises: the error surfaces only when the expression
   is evaluated, and not at all over zero rows.

   One node is not a transcription of the primitives: an IN list whose
   items are all literals of one comparable class (numbers, strings or
   booleans; NULL items allowed) becomes a hashed membership test built
   here, once. A semijoin-reduced MOVE ships [col IN (k1, ..., kK)] with
   K growing with the data, and a linear scan made that filter O(N*K);
   the hashed test makes it O(N + K), and its numeric probe allocates
   nothing. It must return exactly what {!Eval.in_values} returns and
   raise what it raises; that agreement is pinned by the differential
   fuzz in [test_compile], not by construction. A needle of another class
   defers to [Eval.in_values] itself, which raises its error at the first
   non-NULL item. *)

module Ast = Sqlfront.Ast
open Sqlcore

type env = { schema : Schema.t; row : Row.t; outer : env option }

type ctx = {
  outer : env option;
  subquery : env -> Ast.select -> Relation.t;
  group : Row.t list ref option;
}

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

(* A literal, or the [(- 5)] a negative key prints as *)
let constant = function
  | Ast.Lit v -> Some v
  | Ast.Unop (Ast.Neg, Ast.Lit (Value.Int n)) -> Some (Value.Int (-n))
  | Ast.Unop (Ast.Neg, Ast.Lit (Value.Float x)) -> Some (Value.Float (-.x))
  | _ -> None

(* the list's values and their hashed members, when every item is a
   constant of one comparable class *)
let hashed_items items =
  let vs = List.filter_map constant items in
  if List.compare_lengths vs items <> 0 then None
  else Option.map (fun members -> (vs, members)) (members_of vs)

(* ---- names --------------------------------------------------------------- *)

let raising e _ = raise e

let column ctx schema ?qualifier name =
  let shown = match qualifier with Some q -> q ^ "." ^ name | None -> name in
  let rec enclosing = function
    | None -> raising (Eval.Unknown_column shown)
    | Some (e : env) -> (
        match Schema.find_indices e.schema ?qualifier name with
        | [ i ] ->
            let v = Row.get e.row i in
            fun _ -> v
        | [] -> enclosing e.outer
        | _ :: _ :: _ -> raising (Eval.Ambiguous_column shown))
  in
  match Schema.find_indices schema ?qualifier name with
  | [ i ] -> fun row -> row.(i)
  | [] -> enclosing ctx.outer
  | _ :: _ :: _ -> raising (Eval.Ambiguous_column shown)

(* ---- aggregates ---------------------------------------------------------- *)

let compute_agg fn distinct arg rows =
  let values_of f =
    List.filter_map
      (fun row ->
        let v = f row in
        if Value.is_null v then None else Some v)
      rows
  in
  let dedup vs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        let k = Value.key v in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      vs
  in
  match fn, arg with
  | Ast.Count_star, _ -> Value.Int (List.length rows)
  | Ast.Count, Some f ->
      let vs = values_of f in
      Value.Int (List.length (if distinct then dedup vs else vs))
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), Some f -> (
      let vs = values_of f in
      let vs = if distinct then dedup vs else vs in
      match vs with
      | [] -> Value.Null
      | v0 :: _ -> (
          match fn with
          | Ast.Min ->
              List.fold_left (fun a v -> if Value.compare v a < 0 then v else a) v0 vs
          | Ast.Max ->
              List.fold_left (fun a v -> if Value.compare v a > 0 then v else a) v0 vs
          | Ast.Sum ->
              if List.for_all (fun v -> Value.as_int v <> None) vs then
                Value.Int
                  (List.fold_left (fun a v -> a + Option.get (Value.as_int v)) 0 vs)
              else
                let total =
                  List.fold_left
                    (fun a v ->
                      match Value.as_float v with
                      | Some f -> a +. f
                      | None -> raise (Eval.Type_error "SUM of non-numeric value"))
                    0.0 vs
                in
                Value.Float total
          | Ast.Avg ->
              let total =
                List.fold_left
                  (fun a v ->
                    match Value.as_float v with
                    | Some f -> a +. f
                    | None -> raise (Eval.Type_error "AVG of non-numeric value"))
                  0.0 vs
              in
              Value.Float (total /. float_of_int (List.length vs))
          | Ast.Count | Ast.Count_star -> assert false))
  | (Ast.Count | Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
      raise (Eval.Type_error "aggregate function needs an argument")

(* ---- the compiler -------------------------------------------------------- *)

(* what a subquery sees as its enclosing row *)
let env ctx schema row = { schema; row; outer = ctx.outer }

let rec compile ctx schema (expr : Ast.expr) : Row.t -> Value.t =
  let sub = compile ctx schema in
  match expr with
  | Ast.Lit v -> fun _ -> v
  | Ast.Col { qualifier; name } -> column ctx schema ?qualifier name
  | Ast.Binop (Ast.And, a, b) ->
      let fa = sub a and fb = sub b in
      (* both sides always evaluate — Kleene AND, no short-circuit *)
      fun row -> Eval.logic_and (fa row) (fb row)
  | Ast.Binop (Ast.Or, a, b) ->
      let fa = sub a and fb = sub b in
      fun row -> Eval.logic_or (fa row) (fb row)
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      let fa = sub a and fb = sub b in
      fun row -> Eval.comparison op (fa row) (fb row)
  | Ast.Binop (Ast.Concat, a, b) ->
      let fa = sub a and fb = sub b in
      fun row -> Eval.concat (fa row) (fb row)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
      let fa = sub a and fb = sub b in
      fun row -> Eval.arith op (fa row) (fb row)
  | Ast.Unop (Ast.Not, a) ->
      let fa = sub a in
      fun row -> Eval.logic_not (fa row)
  | Ast.Unop (Ast.Neg, a) -> (
      let fa = sub a in
      fun row ->
        match fa row with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (-.f)
        | v -> raise (Eval.Type_error ("negation of " ^ Value.to_string v)))
  | Ast.Is_null { arg; negated } ->
      let fa = sub arg in
      fun row ->
        let v = fa row in
        Value.Bool (if negated then not (Value.is_null v) else Value.is_null v)
  | Ast.Like { arg; pattern; negated } -> (
      let fa = sub arg in
      fun row ->
        match fa row with
        | Value.Null -> Value.Null
        | Value.Str s -> Eval.negate_tv negated (Value.Bool (Like.sql_like ~pattern s))
        | v -> raise (Eval.Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.In_list { arg; items; negated } -> (
      let fa = sub arg in
      match hashed_items items with
      | Some (vs, members) -> (
          (* the three outcomes are fixed per statement, so a probe
             allocates nothing *)
          let hit = Eval.negate_tv negated (Value.Bool true) in
          let miss =
            Eval.negate_tv negated
              (if List.exists Value.is_null vs then Value.Null else Value.Bool false)
          in
          let unknown = Eval.negate_tv negated Value.Null in
          (* over the whole list, Eval.in_values raises for a needle of
             another class at the first non-NULL item: keep just that one *)
          let witness =
            Option.to_list (List.find_opt (fun v -> not (Value.is_null v)) vs)
          in
          fun row ->
            match fa row with
            | Value.Null -> unknown
            | v -> (
                match probe members v with
                | Hit -> hit
                | Miss -> miss
                | Other_class -> Eval.negate_tv negated (Eval.in_values v witness)))
      | None ->
          let fis = List.map sub items in
          fun row ->
            let v = fa row in
            let vs = List.map (fun fi -> fi row) fis in
            Eval.negate_tv negated (Eval.in_values v vs))
  | Ast.Between { arg; lo; hi; negated } ->
      let fa = sub arg and flo = sub lo and fhi = sub hi in
      fun row ->
        let v = fa row in
        let lo = flo row and hi = fhi row in
        Eval.negate_tv negated
          (Eval.logic_and (Eval.comparison Ast.Ge v lo) (Eval.comparison Ast.Le v hi))
  | Ast.Agg { fn; distinct; arg } -> (
      (* the argument sees each row of the group alone: no enclosing
         rows, and no aggregate inside an aggregate *)
      let farg =
        Option.map (compile { ctx with outer = None; group = None } schema) arg
      in
      match ctx.group with
      | Some group -> fun _ -> compute_agg fn distinct farg !group
      | None -> raising (Eval.Type_error "aggregate used outside an aggregate query"))
  | Ast.Scalar_subquery q -> (
      fun row ->
        match Relation.rows (ctx.subquery (env ctx schema row) q) with
        | [] -> Value.Null
        | [ r ] ->
            if Array.length r <> 1 then
              raise (Eval.Type_error "scalar subquery must return one column")
            else Row.get r 0
        | _ :: _ :: _ ->
            raise (Eval.Type_error "scalar subquery returned more than one row"))
  | Ast.In_subquery { arg; query; negated } ->
      let fa = sub arg in
      fun row ->
        let v = fa row in
        let vs =
          List.map
            (fun r ->
              if Array.length r <> 1 then
                raise (Eval.Type_error "IN subquery must return one column")
              else Row.get r 0)
            (Relation.rows (ctx.subquery (env ctx schema row) query))
        in
        Eval.negate_tv negated (Eval.in_values v vs)
  | Ast.Exists q ->
      fun row ->
        Value.Bool (not (Relation.is_empty (ctx.subquery (env ctx schema row) q)))
