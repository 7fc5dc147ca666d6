open Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Concat -> "||"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"

let agg_str = function
  | Count_star | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

(* Fully parenthesized compound expressions: simple, unambiguous, and
   round-trips through the parser. *)
let rec expr_to_string = function
  | Lit v -> Sqlcore.Value.to_literal v
  | Col { qualifier = None; name } -> name
  | Col { qualifier = Some q; name } -> q ^ "." ^ name
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_str op)
        (expr_to_string b)
  | Unop (Neg, a) -> Printf.sprintf "(- %s)" (expr_to_string a)
  | Unop (Not, a) -> Printf.sprintf "(NOT %s)" (expr_to_string a)
  | Is_null { arg; negated } ->
      Printf.sprintf "(%s IS %sNULL)" (expr_to_string arg)
        (if negated then "NOT " else "")
  | Like { arg; pattern; negated } ->
      Printf.sprintf "(%s %sLIKE %s)" (expr_to_string arg)
        (if negated then "NOT " else "")
        (Sqlcore.Value.to_literal (Sqlcore.Value.Str pattern))
  | In_list { arg; items; negated } ->
      Printf.sprintf "(%s %sIN (%s))" (expr_to_string arg)
        (if negated then "NOT " else "")
        (String.concat ", " (List.map expr_to_string items))
  | Between { arg; lo; hi; negated } ->
      Printf.sprintf "(%s %sBETWEEN %s AND %s)" (expr_to_string arg)
        (if negated then "NOT " else "")
        (expr_to_string lo) (expr_to_string hi)
  | Agg { fn = Count_star; _ } -> "COUNT(*)"
  | Agg { fn; distinct; arg } ->
      Printf.sprintf "%s(%s%s)" (agg_str fn)
        (if distinct then "DISTINCT " else "")
        (match arg with Some e -> expr_to_string e | None -> "*")
  | Scalar_subquery q -> Printf.sprintf "(%s)" (select_to_string q)
  | In_subquery { arg; query; negated } ->
      Printf.sprintf "(%s %sIN (%s))" (expr_to_string arg)
        (if negated then "NOT " else "")
        (select_to_string query)
  | Exists q -> Printf.sprintf "EXISTS (%s)" (select_to_string q)

and projection_to_string = function
  | Star -> "*"
  | Qualified_star q -> q ^ ".*"
  | Proj_expr (e, None) -> expr_to_string e
  | Proj_expr (e, Some a) -> expr_to_string e ^ " AS " ^ a

and table_ref_to_string { table; alias } =
  match alias with None -> table | Some a -> table ^ " " ^ a

and select_to_string s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if s.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf
    (String.concat ", " (List.map projection_to_string s.projections));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf
    (String.concat ", " (List.map table_ref_to_string s.from));
  (match s.where with
  | Some e -> Buffer.add_string buf (" WHERE " ^ expr_to_string e)
  | None -> ());
  (match s.group_by with
  | [] -> ()
  | es ->
      Buffer.add_string buf
        (" GROUP BY " ^ String.concat ", " (List.map expr_to_string es)));
  (match s.having with
  | Some e -> Buffer.add_string buf (" HAVING " ^ expr_to_string e)
  | None -> ());
  (match s.order_by with
  | [] -> ()
  | items ->
      let item { sort_expr; descending } =
        expr_to_string sort_expr ^ if descending then " DESC" else " ASC"
      in
      Buffer.add_string buf (" ORDER BY " ^ String.concat ", " (List.map item items)));
  Buffer.contents buf

let column_def_to_string { col_name; col_ty; col_width; col_not_null; col_unique }
    =
  let base =
    match col_width with
    | Some w -> Printf.sprintf "%s %s(%d)" col_name (Sqlcore.Ty.to_string col_ty) w
    | None -> Printf.sprintf "%s %s" col_name (Sqlcore.Ty.to_string col_ty)
  in
  base
  ^ (if col_not_null then " NOT NULL" else "")
  ^ if col_unique then " UNIQUE" else ""

let stmt_to_string = function
  | Select s -> select_to_string s
  | Insert { table; columns; source } ->
      let cols =
        match columns with
        | None -> ""
        | Some cs -> Printf.sprintf " (%s)" (String.concat ", " cs)
      in
      let src =
        match source with
        | Values rows ->
            " VALUES "
            ^ String.concat ", "
                (List.map
                   (fun row ->
                     Printf.sprintf "(%s)"
                       (String.concat ", " (List.map expr_to_string row)))
                   rows)
        | Query q -> " " ^ select_to_string q
      in
      Printf.sprintf "INSERT INTO %s%s%s" table cols src
  | Update { table; assignments; where } ->
      let assigns =
        String.concat ", "
          (List.map (fun (c, e) -> c ^ " = " ^ expr_to_string e) assignments)
      in
      let w =
        match where with Some e -> " WHERE " ^ expr_to_string e | None -> ""
      in
      Printf.sprintf "UPDATE %s SET %s%s" table assigns w
  | Delete { table; where } ->
      let w =
        match where with Some e -> " WHERE " ^ expr_to_string e | None -> ""
      in
      Printf.sprintf "DELETE FROM %s%s" table w
  | Create_table { table; columns } ->
      Printf.sprintf "CREATE TABLE %s (%s)" table
        (String.concat ", " (List.map column_def_to_string columns))
  | Drop_table { table } -> Printf.sprintf "DROP TABLE %s" table
  | Create_view { view; view_query } ->
      Printf.sprintf "CREATE VIEW %s AS %s" view (select_to_string view_query)
  | Drop_view { view } -> Printf.sprintf "DROP VIEW %s" view
  | Create_index { index; idx_table; idx_column } ->
      Printf.sprintf "CREATE INDEX %s ON %s (%s)" index idx_table idx_column
  | Drop_index { index } -> Printf.sprintf "DROP INDEX %s" index
  | Begin_txn -> "BEGIN"
  | Commit_txn -> "COMMIT"
  | Rollback_txn -> "ROLLBACK"
  | Prepare_txn -> "PREPARE"
