type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Concat
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Lit of Sqlcore.Value.t
  | Col of { qualifier : string option; name : string }
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Is_null of { arg : expr; negated : bool }
  | Like of { arg : expr; pattern : string; negated : bool }
  | In_list of { arg : expr; items : expr list; negated : bool }
  | Between of { arg : expr; lo : expr; hi : expr; negated : bool }
  | Agg of { fn : agg_fn; distinct : bool; arg : expr option }
  | Scalar_subquery of select
  | In_subquery of { arg : expr; query : select; negated : bool }
  | Exists of select

and projection =
  | Star
  | Qualified_star of string
  | Proj_expr of expr * string option

and table_ref = { table : string; alias : string option }

and order_item = { sort_expr : expr; descending : bool }

and select = {
  distinct : bool;
  projections : projection list;
  from : table_ref list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
}

type column_def = {
  col_name : string;
  col_ty : Sqlcore.Ty.t;
  col_width : int option;
  col_not_null : bool;
  col_unique : bool;
}

type insert_source = Values of expr list list | Query of select

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list option; source : insert_source }
  | Update of { table : string; assignments : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Create_table of { table : string; columns : column_def list }
  | Drop_table of { table : string }
  | Create_view of { view : string; view_query : select }
  | Drop_view of { view : string }
  | Create_index of { index : string; idx_table : string; idx_column : string }
  | Drop_index of { index : string }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Prepare_txn

let select ?(distinct = false) ?where ?(group_by = []) ?having ?(order_by = [])
    ~projections ~from () =
  { distinct; projections; from; where; group_by; having; order_by }

let col ?qualifier name = Col { qualifier; name }
let lit_int i = Lit (Sqlcore.Value.Int i)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc c -> Binop (And, acc, c)) e rest)

let rec expr_has_agg = function
  | Agg _ -> true
  | Lit _ | Col _ -> false
  | Binop (_, a, b) -> expr_has_agg a || expr_has_agg b
  | Unop (_, a) -> expr_has_agg a
  | Is_null { arg; _ } | Like { arg; _ } -> expr_has_agg arg
  | In_list { arg; items; _ } -> expr_has_agg arg || List.exists expr_has_agg items
  | Between { arg; lo; hi; _ } ->
      expr_has_agg arg || expr_has_agg lo || expr_has_agg hi
  (* aggregates inside a nested subquery belong to that subquery *)
  | Scalar_subquery _ | Exists _ -> false
  | In_subquery { arg; _ } -> expr_has_agg arg

let is_aggregate_query s =
  s.group_by <> []
  || s.having <> None
  || List.exists
       (function Proj_expr (e, _) -> expr_has_agg e | Star | Qualified_star _ -> false)
       s.projections

let rec tables_of_expr = function
  | Lit _ | Col _ | Agg _ -> []
  | Binop (_, a, b) -> tables_of_expr a @ tables_of_expr b
  | Unop (_, a) -> tables_of_expr a
  | Is_null { arg; _ } | Like { arg; _ } -> tables_of_expr arg
  | In_list { arg; items; _ } ->
      tables_of_expr arg @ List.concat_map tables_of_expr items
  | Between { arg; lo; hi; _ } ->
      tables_of_expr arg @ tables_of_expr lo @ tables_of_expr hi
  | Scalar_subquery q | Exists q -> tables_of_select q
  | In_subquery { arg; query; _ } -> tables_of_expr arg @ tables_of_select query

and tables_of_select s =
  List.map (fun (r : table_ref) -> r.table) s.from
  @ Option.fold ~none:[] ~some:tables_of_expr s.where
  @ List.concat_map tables_of_expr s.group_by
  @ Option.fold ~none:[] ~some:tables_of_expr s.having

let tables_of_stmt = function
  | Select s -> tables_of_select s
  | Insert { table; source; _ } ->
      table :: (match source with Values _ -> [] | Query q -> tables_of_select q)
  | Update { table; assignments; where } ->
      table
      :: (List.concat_map (fun (_, e) -> tables_of_expr e) assignments
         @ Option.fold ~none:[] ~some:tables_of_expr where)
  | Delete { table; where } ->
      table :: Option.fold ~none:[] ~some:tables_of_expr where
  | Create_table { table; _ } | Drop_table { table } -> [ table ]
  | Create_view { view_query; _ } -> tables_of_select view_query
  | Drop_view _ -> []
  | Create_index { idx_table; _ } -> [ idx_table ]
  | Drop_index _ -> []
  | Begin_txn | Commit_txn | Rollback_txn | Prepare_txn -> []

(* Structural equality: the only subtlety is Float literals, where we want
   Float.equal rather than (=) so that equal NaNs compare equal. *)
let equal_stmt a b =
  let norm_value = function
    | Sqlcore.Value.Float f when Float.is_nan f -> Sqlcore.Value.Str "<nan>"
    | v -> v
  in
  let rec norm_expr = function
    | Lit v -> Lit (norm_value v)
    | Col _ as e -> e
    | Binop (op, x, y) -> Binop (op, norm_expr x, norm_expr y)
    | Unop (op, x) -> Unop (op, norm_expr x)
    | Is_null { arg; negated } -> Is_null { arg = norm_expr arg; negated }
    | Like { arg; pattern; negated } -> Like { arg = norm_expr arg; pattern; negated }
    | In_list { arg; items; negated } ->
        In_list { arg = norm_expr arg; items = List.map norm_expr items; negated }
    | Between { arg; lo; hi; negated } ->
        Between
          { arg = norm_expr arg; lo = norm_expr lo; hi = norm_expr hi; negated }
    | Agg { fn; distinct; arg } -> Agg { fn; distinct; arg = Option.map norm_expr arg }
    | Scalar_subquery q -> Scalar_subquery (norm_select q)
    | In_subquery { arg; query; negated } ->
        In_subquery { arg = norm_expr arg; query = norm_select query; negated }
    | Exists q -> Exists (norm_select q)
  and norm_select s =
    {
      s with
      projections =
        List.map
          (function
            | Proj_expr (e, a) -> Proj_expr (norm_expr e, a)
            | (Star | Qualified_star _) as p -> p)
          s.projections;
      where = Option.map norm_expr s.where;
      group_by = List.map norm_expr s.group_by;
      having = Option.map norm_expr s.having;
      order_by =
        List.map (fun o -> { o with sort_expr = norm_expr o.sort_expr }) s.order_by;
    }
  in
  let norm_stmt = function
    | Select s -> Select (norm_select s)
    | Insert { table; columns; source } ->
        Insert
          {
            table;
            columns;
            source =
              (match source with
              | Values rows -> Values (List.map (List.map norm_expr) rows)
              | Query q -> Query (norm_select q));
          }
    | Update { table; assignments; where } ->
        Update
          {
            table;
            assignments = List.map (fun (c, e) -> (c, norm_expr e)) assignments;
            where = Option.map norm_expr where;
          }
    | Delete { table; where } -> Delete { table; where = Option.map norm_expr where }
    | Create_view { view; view_query } ->
        Create_view { view; view_query = norm_select view_query }
    | (Create_table _ | Drop_table _ | Drop_view _ | Create_index _
      | Drop_index _ | Begin_txn | Commit_txn | Rollback_txn | Prepare_txn) as s
      ->
        s
  in
  norm_stmt a = norm_stmt b
