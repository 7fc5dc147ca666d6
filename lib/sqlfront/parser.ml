open Ast

exception Error = Sqlcore.Scan.Error

(* Keywords that terminate an expression or a clause list. *)
let clause_kw =
  [
    "from"; "where"; "group"; "having"; "order"; "and"; "or"; "not"; "as";
    "asc"; "desc"; "union"; "set"; "values"; "like"; "in"; "between"; "is";
    "null"; "exists"; "select"; "distinct"; "all"; "by"; "insert"; "update";
    "delete"; "create"; "drop"; "commit"; "rollback"; "prepare"; "begin";
    (* MSQL clause keywords; the MSQL parser embeds this grammar, so an
       alias may not shadow them *)
    "comp"; "vital"; "use"; "let"; "end"; "do"; "when";
  ]

let agg_of_name name =
  match Sqlcore.Names.canon name with
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "avg" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

let rec parse_expr_prec ts = parse_or ts

and parse_or ts =
  let lhs = parse_and ts in
  if Tstream.accept_kw ts "or" then Binop (Or, lhs, parse_or ts) else lhs

and parse_and ts =
  let lhs = parse_not ts in
  if Tstream.accept_kw ts "and" then Binop (And, lhs, parse_and ts) else lhs

and parse_not ts =
  if Tstream.accept_kw ts "not" then Unop (Not, parse_not ts)
  else parse_comparison ts

and parse_comparison ts =
  let lhs = parse_additive ts in
  let negated = Tstream.accept_kw ts "not" in
  if Tstream.accept_kw ts "like" then begin
    match Tstream.next ts with
    | Token.Str pattern -> Like { arg = lhs; pattern; negated }
    | _ -> Tstream.error ts "LIKE expects a string pattern"
  end
  else if Tstream.accept_kw ts "between" then begin
    let lo = parse_additive ts in
    Tstream.expect_kw ts "and";
    let hi = parse_additive ts in
    Between { arg = lhs; lo; hi; negated }
  end
  else if Tstream.accept_kw ts "in" then begin
    Tstream.expect_sym ts "(";
    if Tstream.at_kw ts "select" then begin
      let query = parse_select_body ts in
      Tstream.expect_sym ts ")";
      In_subquery { arg = lhs; query; negated }
    end
    else begin
      let items = parse_expr_list ts in
      Tstream.expect_sym ts ")";
      In_list { arg = lhs; items; negated }
    end
  end
  else if negated then Tstream.error ts "expected LIKE, BETWEEN or IN after NOT"
  else if Tstream.accept_kw ts "is" then begin
    let negated = Tstream.accept_kw ts "not" in
    Tstream.expect_kw ts "null";
    Is_null { arg = lhs; negated }
  end
  else
    let op =
      if Tstream.accept_sym ts "=" then Some Eq
      else if Tstream.accept_sym ts "<>" then Some Neq
      else if Tstream.accept_sym ts "<=" then Some Le
      else if Tstream.accept_sym ts ">=" then Some Ge
      else if Tstream.accept_sym ts "<" then Some Lt
      else if Tstream.accept_sym ts ">" then Some Gt
      else None
    in
    match op with
    | None -> lhs
    | Some op -> Binop (op, lhs, parse_additive ts)

and parse_additive ts =
  let rec loop lhs =
    if Tstream.accept_sym ts "+" then loop (Binop (Add, lhs, parse_multiplicative ts))
    else if Tstream.accept_sym ts "-" then
      loop (Binop (Sub, lhs, parse_multiplicative ts))
    else if Tstream.accept_sym ts "||" then
      loop (Binop (Concat, lhs, parse_multiplicative ts))
    else lhs
  in
  loop (parse_multiplicative ts)

and parse_multiplicative ts =
  let rec loop lhs =
    if Tstream.accept_sym ts "*" then loop (Binop (Mul, lhs, parse_unary ts))
    else if Tstream.accept_sym ts "/" then loop (Binop (Div, lhs, parse_unary ts))
    else if Tstream.accept_sym ts "%" then loop (Binop (Mod, lhs, parse_unary ts))
    else lhs
  in
  loop (parse_unary ts)

and parse_unary ts =
  if Tstream.accept_sym ts "-" then Unop (Neg, parse_unary ts)
  else if Tstream.accept_sym ts "+" then parse_unary ts
  else parse_primary ts

and parse_primary ts =
  match Tstream.peek ts with
  | Token.Int i ->
      Tstream.advance ts;
      Lit (Sqlcore.Value.Int i)
  | Token.Float f ->
      Tstream.advance ts;
      Lit (Sqlcore.Value.Float f)
  | Token.Str s ->
      Tstream.advance ts;
      Lit (Sqlcore.Value.Str s)
  | Token.Sym "(" ->
      Tstream.advance ts;
      if Tstream.at_kw ts "select" then begin
        let q = parse_select_body ts in
        Tstream.expect_sym ts ")";
        Scalar_subquery q
      end
      else begin
        let e = parse_expr_prec ts in
        Tstream.expect_sym ts ")";
        e
      end
  | Token.Ident name -> parse_ident_expr ts name
  | tok -> Tstream.error ts (Printf.sprintf "unexpected token %s" (Token.to_string tok))

and parse_ident_expr ts name =
  if Sqlcore.Names.equal name "exists" then begin
    Tstream.advance ts;
    Tstream.expect_sym ts "(";
    let q =
      if Tstream.at_kw ts "select" then parse_select_body ts
      else Tstream.error ts "EXISTS expects a subquery"
    in
    Tstream.expect_sym ts ")";
    Exists q
  end
  else if Sqlcore.Names.equal name "null" then begin
    Tstream.advance ts;
    Lit Sqlcore.Value.Null
  end
  else if Sqlcore.Names.equal name "true" then begin
    Tstream.advance ts;
    Lit (Sqlcore.Value.Bool true)
  end
  else if Sqlcore.Names.equal name "false" then begin
    Tstream.advance ts;
    Lit (Sqlcore.Value.Bool false)
  end
  else begin
    Tstream.advance ts;
    match agg_of_name name with
    | Some fn when Tstream.at_sym ts "(" ->
        Tstream.advance ts;
        if fn = Count && Tstream.accept_sym ts "*" then begin
          Tstream.expect_sym ts ")";
          Agg { fn = Count_star; distinct = false; arg = None }
        end
        else begin
          let distinct = Tstream.accept_kw ts "distinct" in
          let arg = parse_expr_prec ts in
          Tstream.expect_sym ts ")";
          Agg { fn; distinct; arg = Some arg }
        end
    | Some _ | None ->
        if Tstream.accept_sym ts "." then
          let field = Tstream.ident ts in
          Col { qualifier = Some name; name = field }
        else Col { qualifier = None; name }
  end

and parse_expr_list ts =
  let e = parse_expr_prec ts in
  if Tstream.accept_sym ts "," then e :: parse_expr_list ts else [ e ]

(* SELECT body; the leading SELECT keyword is still pending. *)
and parse_select_body ts =
  Tstream.expect_kw ts "select";
  let distinct =
    if Tstream.accept_kw ts "distinct" then true
    else begin
      ignore (Tstream.accept_kw ts "all");
      false
    end
  in
  let projections = parse_projections ts in
  Tstream.expect_kw ts "from";
  let from = parse_table_refs ts in
  let where = if Tstream.accept_kw ts "where" then Some (parse_expr_prec ts) else None in
  let group_by =
    if Tstream.at_kw ts "group" then begin
      Tstream.advance ts;
      Tstream.expect_kw ts "by";
      parse_expr_list ts
    end
    else []
  in
  let having = if Tstream.accept_kw ts "having" then Some (parse_expr_prec ts) else None in
  let order_by =
    if Tstream.at_kw ts "order" then begin
      Tstream.advance ts;
      Tstream.expect_kw ts "by";
      parse_order_items ts
    end
    else []
  in
  { distinct; projections; from; where; group_by; having; order_by }

and parse_projections ts =
  let item () =
    if Tstream.accept_sym ts "*" then Star
    else begin
      (* qualified star t.* needs 3-token lookahead; handle by consuming
         the ident and dot, then checking for '*' *)
      match Tstream.peek ts, Tstream.peek2 ts with
      | Token.Ident q, Token.Sym "." -> (
          (* try t.* *)
          let saved_q = q in
          Tstream.advance ts;
          Tstream.advance ts;
          if Tstream.accept_sym ts "*" then Qualified_star saved_q
          else
            let field = Tstream.ident ts in
            let e = Col { qualifier = Some saved_q; name = field } in
            (* allow operators to continue after the column, e.g. t.a + 1 *)
            let e = continue_expr ts e in
            let alias = parse_alias ts in
            Proj_expr (e, alias))
      | _ ->
          let e = parse_expr_prec ts in
          let alias = parse_alias ts in
          Proj_expr (e, alias)
    end
  in
  let rec loop acc =
    let p = item () in
    if Tstream.accept_sym ts "," then loop (p :: acc) else List.rev (p :: acc)
  in
  loop []

(* Continue parsing binary operators after an already-parsed primary: wrap
   the primary back through the precedence chain. *)
and continue_expr ts lhs =
  (* multiplicative *)
  let lhs =
    let rec loop lhs =
      if Tstream.accept_sym ts "*" then loop (Binop (Mul, lhs, parse_unary ts))
      else if Tstream.accept_sym ts "/" then loop (Binop (Div, lhs, parse_unary ts))
      else if Tstream.accept_sym ts "%" then loop (Binop (Mod, lhs, parse_unary ts))
      else lhs
    in
    loop lhs
  in
  let rec add lhs =
    if Tstream.accept_sym ts "+" then add (Binop (Add, lhs, parse_multiplicative ts))
    else if Tstream.accept_sym ts "-" then add (Binop (Sub, lhs, parse_multiplicative ts))
    else if Tstream.accept_sym ts "||" then
      add (Binop (Concat, lhs, parse_multiplicative ts))
    else lhs
  in
  add lhs

and parse_alias ts =
  if Tstream.accept_kw ts "as" then Some (Tstream.ident ts)
  else
    match Tstream.peek ts with
    | Token.Ident name when not (Sqlcore.Names.mem name clause_kw) ->
        Tstream.advance ts;
        Some name
    | _ -> None

and parse_table_refs ts =
  let one () =
    (* a table may be database-qualified: db.table (MSQL-style prefixing);
       the dotted name is kept as a single string and split upstream *)
    let first = Tstream.ident ts in
    let table =
      if Tstream.accept_sym ts "." then first ^ "." ^ Tstream.ident ts else first
    in
    let alias = parse_alias ts in
    { table; alias }
  in
  let rec loop acc =
    let r = one () in
    if Tstream.accept_sym ts "," then loop (r :: acc) else List.rev (r :: acc)
  in
  loop []

and parse_order_items ts =
  let one () =
    let sort_expr = parse_expr_prec ts in
    let descending =
      if Tstream.accept_kw ts "desc" then true
      else begin
        ignore (Tstream.accept_kw ts "asc");
        false
      end
    in
    { sort_expr; descending }
  in
  let rec loop acc =
    let o = one () in
    if Tstream.accept_sym ts "," then loop (o :: acc) else List.rev (o :: acc)
  in
  loop []

(* table names may be database-qualified: db.table *)
let table_name ts =
  let first = Tstream.ident ts in
  if Tstream.accept_sym ts "." then first ^ "." ^ Tstream.ident ts else first

let parse_column_defs ts =
  Tstream.expect_sym ts "(";
  let one () =
    let col_name = Tstream.ident ts in
    let tyname = Tstream.ident ts in
    let col_ty =
      match Sqlcore.Ty.of_string tyname with
      | Some ty -> ty
      | None -> Tstream.error ts (Printf.sprintf "unknown type %s" tyname)
    in
    let col_width =
      if Tstream.accept_sym ts "(" then begin
        let w =
          match Tstream.next ts with
          | Token.Int w -> w
          | _ -> Tstream.error ts "expected width"
        in
        Tstream.expect_sym ts ")";
        Some w
      end
      else None
    in
    let col_not_null = ref false and col_unique = ref false in
    let rec flags () =
      if Tstream.accept_kw ts "not" then begin
        Tstream.expect_kw ts "null";
        col_not_null := true;
        flags ()
      end
      else if Tstream.accept_kw ts "unique" then begin
        col_unique := true;
        flags ()
      end
    in
    flags ();
    { col_name; col_ty; col_width; col_not_null = !col_not_null;
      col_unique = !col_unique }
  in
  let rec loop acc =
    let c = one () in
    if Tstream.accept_sym ts "," then loop (c :: acc)
    else begin
      Tstream.expect_sym ts ")";
      List.rev (c :: acc)
    end
  in
  loop []

let parse_stmt_body ts =
  if Tstream.at_kw ts "select" then Select (parse_select_body ts)
  else if Tstream.accept_kw ts "insert" then begin
    Tstream.expect_kw ts "into";
    let table = table_name ts in
    let columns =
      if Tstream.at_sym ts "(" then begin
        Tstream.advance ts;
        let rec cols acc =
          let c = Tstream.ident ts in
          if Tstream.accept_sym ts "," then cols (c :: acc)
          else begin
            Tstream.expect_sym ts ")";
            List.rev (c :: acc)
          end
        in
        Some (cols [])
      end
      else None
    in
    if Tstream.accept_kw ts "values" then begin
      let row () =
        Tstream.expect_sym ts "(";
        let items = parse_expr_list ts in
        Tstream.expect_sym ts ")";
        items
      in
      let rec rows acc =
        let r = row () in
        if Tstream.accept_sym ts "," then rows (r :: acc) else List.rev (r :: acc)
      in
      Insert { table; columns; source = Values (rows []) }
    end
    else if Tstream.at_kw ts "select" then
      Insert { table; columns; source = Query (parse_select_body ts) }
    else Tstream.error ts "expected VALUES or SELECT"
  end
  else if Tstream.accept_kw ts "update" then begin
    let table = table_name ts in
    Tstream.expect_kw ts "set";
    let assign () =
      let c = Tstream.ident ts in
      Tstream.expect_sym ts "=";
      let e = parse_expr_prec ts in
      (c, e)
    in
    let rec assigns acc =
      let a = assign () in
      if Tstream.accept_sym ts "," then assigns (a :: acc) else List.rev (a :: acc)
    in
    let assignments = assigns [] in
    let where = if Tstream.accept_kw ts "where" then Some (parse_expr_prec ts) else None in
    Update { table; assignments; where }
  end
  else if Tstream.accept_kw ts "delete" then begin
    Tstream.expect_kw ts "from";
    let table = table_name ts in
    let where = if Tstream.accept_kw ts "where" then Some (parse_expr_prec ts) else None in
    Delete { table; where }
  end
  else if Tstream.accept_kw ts "create" then begin
    if Tstream.accept_kw ts "index" then begin
      let index = Tstream.ident ts in
      Tstream.expect_kw ts "on";
      let idx_table = table_name ts in
      Tstream.expect_sym ts "(";
      let idx_column = Tstream.ident ts in
      Tstream.expect_sym ts ")";
      Create_index { index; idx_table; idx_column }
    end
    else if Tstream.accept_kw ts "view" then begin
      let view = Tstream.ident ts in
      Tstream.expect_kw ts "as";
      Create_view { view; view_query = parse_select_body ts }
    end
    else begin
      Tstream.expect_kw ts "table";
      let table = table_name ts in
      let columns = parse_column_defs ts in
      Create_table { table; columns }
    end
  end
  else if Tstream.accept_kw ts "drop" then begin
    if Tstream.accept_kw ts "index" then Drop_index { index = Tstream.ident ts }
    else if Tstream.accept_kw ts "view" then Drop_view { view = Tstream.ident ts }
    else begin
      Tstream.expect_kw ts "table";
      let table = table_name ts in
      Drop_table { table }
    end
  end
  else if Tstream.accept_kw ts "begin" then begin
    ignore (Tstream.accept_kw ts "work");
    ignore (Tstream.accept_kw ts "transaction");
    Begin_txn
  end
  else if Tstream.accept_kw ts "commit" then begin
    ignore (Tstream.accept_kw ts "work");
    Commit_txn
  end
  else if Tstream.accept_kw ts "rollback" then begin
    ignore (Tstream.accept_kw ts "work");
    Rollback_txn
  end
  else if Tstream.accept_kw ts "prepare" then Prepare_txn
  else Tstream.error ts "expected a statement"

let with_stream input f = Tstream.run (Lexer.tokenize input) f

let stmt_of_tokens = parse_stmt_body
let select_of_tokens = parse_select_body

let parse_stmt input =
  with_stream input (fun ts ->
      let s = parse_stmt_body ts in
      ignore (Tstream.accept_sym ts ";");
      s)

let parse_script input =
  with_stream input (fun ts ->
      let rec loop acc =
        if Tstream.at_eof ts then List.rev acc
        else if Tstream.accept_sym ts ";" then loop acc
        else begin
          let s = parse_stmt_body ts in
          ignore (Tstream.accept_sym ts ";");
          loop (s :: acc)
        end
      in
      loop [])

let parse_select input = with_stream input parse_select_body
let parse_expr input = with_stream input parse_expr_prec
