module Ast = Sqlfront.Ast
open Sqlcore

exception Type_error of string
exception Unknown_column of string
exception Ambiguous_column of string

let truthy = function Value.Bool true -> true | _ -> false

(* [Value.compare] of two non-NULL values of comparable classes *)
let compare_comparable a b =
  match a, b with
  | Value.Int _, Value.Int _
  | Value.Float _, Value.Float _
  | Value.Int _, Value.Float _
  | Value.Float _, Value.Int _
  | Value.Str _, Value.Str _
  | Value.Bool _, Value.Bool _ ->
      Value.compare a b
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "cannot compare %s with %s" (Value.to_string a)
              (Value.to_string b)))

let value_compare_sql a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> None
  | _ -> Some (compare_comparable a b)

let arith op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | Ast.Add -> Value.Int (x + y)
      | Ast.Sub -> Value.Int (x - y)
      | Ast.Mul -> Value.Int (x * y)
      | Ast.Div ->
          if y = 0 then raise (Type_error "division by zero") else Value.Int (x / y)
      | Ast.Mod ->
          if y = 0 then raise (Type_error "modulo by zero") else Value.Int (x mod y)
      | _ -> assert false)
  | _, _ -> (
      match Value.as_float a, Value.as_float b with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Value.Float (x +. y)
          | Ast.Sub -> Value.Float (x -. y)
          | Ast.Mul -> Value.Float (x *. y)
          | Ast.Div ->
              if y = 0. then raise (Type_error "division by zero")
              else Value.Float (x /. y)
          | Ast.Mod -> raise (Type_error "modulo on non-integers")
          | _ -> assert false)
      | _ ->
          raise
            (Type_error
               (Printf.sprintf "arithmetic on non-numeric values %s, %s"
                  (Value.to_string a) (Value.to_string b))))

(* Kleene three-valued logic *)
let logic_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | (Value.Bool true | Value.Null), (Value.Bool true | Value.Null) -> Value.Null
  | _ -> raise (Type_error "AND on non-boolean values")

let logic_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | (Value.Bool false | Value.Null), (Value.Bool false | Value.Null) -> Value.Null
  | _ -> raise (Type_error "OR on non-boolean values")

let logic_not = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | v -> raise (Type_error ("NOT on non-boolean value " ^ Value.to_string v))

(* per row in every WHERE, so it allocates nothing: no option, and the
   two constant booleans *)
let comparison op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ ->
      let c = compare_comparable a b in
      let r =
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
        | _ -> assert false
      in
      if r then Value.Bool true else Value.Bool false

let concat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | a, b -> Value.Str (Value.to_string a ^ Value.to_string b)

let negate_tv negated v =
  if negated then logic_not v else v

(* SQL IN semantics: TRUE if an equal member exists; otherwise UNKNOWN if
   any comparison was with NULL (or the needle is NULL); otherwise FALSE. *)
let in_values v vs =
  if Value.is_null v then Value.Null
  else
    let saw_null = ref false in
    let found =
      List.exists
        (fun x ->
          match value_compare_sql v x with
          | None ->
              saw_null := true;
              false
          | Some 0 -> true
          | Some _ -> false)
        vs
    in
    if found then Value.Bool true
    else if !saw_null then Value.Null
    else Value.Bool false
