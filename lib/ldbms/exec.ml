module Ast = Sqlfront.Ast
module Sql_pp = Sqlfront.Sql_pp
open Sqlcore

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let wrap f =
  try f () with
  | Eval.Type_error m -> err "type error: %s" m
  | Eval.Unknown_column c -> err "unknown column: %s" c
  | Eval.Ambiguous_column c -> err "ambiguous column: %s" c
  | Database.No_such_table t -> err "no such table: %s" t
  | Database.Table_exists t -> err "table already exists: %s" t
  | Database.No_such_view v -> err "no such view: %s" v
  | Database.View_exists v -> err "view already exists: %s" v
  | Database.No_such_index i -> err "no such index: %s" i
  | Database.Index_exists i -> err "index already exists: %s" i

(* ---- transactional reads ------------------------------------------------ *)

(* The version of a base table a statement sees: inside a transaction,
   the transaction's staged intent or its snapshot's version; outside (or
   when the latest committed version is the visible one), the current
   rows. *)
let visible txn tbl =
  match txn with None -> `Current | Some txn -> Txn.read txn tbl

let table_rows txn tbl =
  match visible txn tbl with `Current -> Table.rows tbl | `Frozen rows -> rows

(* ---- output-schema type inference ------------------------------------- *)

let rec infer_expr_ty schema = function
  | Ast.Lit v -> Option.value (Value.ty v) ~default:Ty.Str
  | Ast.Col { qualifier; name } -> (
      match Schema.find_index schema ?qualifier name with
      | Some i -> (List.nth schema i).Schema.ty
      | None -> Ty.Str)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) -> (
      match infer_expr_ty schema a, infer_expr_ty schema b with
      | Ty.Int, Ty.Int -> Ty.Int
      | _ -> Ty.Float)
  | Ast.Binop (Ast.Concat, _, _) -> Ty.Str
  | Ast.Binop
      ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _)
    ->
      Ty.Bool
  | Ast.Unop (Ast.Neg, a) -> infer_expr_ty schema a
  | Ast.Unop (Ast.Not, _) -> Ty.Bool
  | Ast.Is_null _ | Ast.Like _ | Ast.In_list _ | Ast.Between _ | Ast.In_subquery _
  | Ast.Exists _ ->
      Ty.Bool
  | Ast.Agg { fn = Count_star | Count; _ } -> Ty.Int
  | Ast.Agg { fn = Avg; _ } -> Ty.Float
  | Ast.Agg { fn = Sum | Min | Max; arg; _ } -> (
      match arg with Some a -> infer_expr_ty schema a | None -> Ty.Int)
  | Ast.Scalar_subquery q -> (
      match q.Ast.projections with
      | [ Ast.Proj_expr (e, _) ] -> infer_expr_ty [] e
      | _ -> Ty.Str)

(* ---- projection naming ------------------------------------------------- *)

let agg_fn_name = function
  | Ast.Count_star | Ast.Count -> "count"
  | Ast.Sum -> "sum"
  | Ast.Avg -> "avg"
  | Ast.Min -> "min"
  | Ast.Max -> "max"

let derived_name = function
  | Ast.Col { name; _ } -> name
  | Ast.Agg { fn; arg; _ } -> (
      match arg with
      | Some (Ast.Col { name; _ }) -> agg_fn_name fn ^ "_" ^ name
      | Some _ | None -> agg_fn_name fn)
  | e -> Sql_pp.expr_to_string e

(* ---- FROM clause ------------------------------------------------------- *)

(* Views expand to their evaluated definition; [depth] guards against
   mutually recursive view definitions. *)
let max_view_depth = 16

(* How a join may read a leaf. [Base] holds while [jl_rel] is the
   table's current version, unfiltered: a join may then probe the table's
   lookup map instead, and the leaf's local conjuncts, if it has any,
   cannot raise and run only on the rows read. *)
type access = Rows | Base of Table.t * (Row.t -> bool) option

type join_leaf = {
  jl_label : string;
  jl_rel : Relation.t;  (* requalified with the FROM label *)
  jl_card : int;  (* rows of [jl_rel] *)
  jl_access : access;
}

let load_leaf ~eval_select ~depth ~tables ?txn db (r : Ast.table_ref) =
  let label = Option.value r.Ast.alias ~default:r.Ast.table in
  let leaf rel card access =
    { jl_label = label; jl_rel = Relation.requalify (Some label) rel; jl_card = card;
      jl_access = access }
  in
  match tables r.Ast.table with
  | Some tbl -> (
      match visible txn tbl with
      | `Current -> leaf (Table.to_relation tbl) (Table.cardinality tbl) (Base (tbl, None))
      | `Frozen rows ->
          leaf (Relation.make (Table.schema tbl) rows) (List.length rows) Rows)
  | None -> (
      match Database.find_view_opt db r.Ast.table with
      | Some q ->
          if depth >= max_view_depth then
            err "view expansion too deep (recursive views?) at %s" r.Ast.table
          else
            let rel = eval_select q in
            leaf rel (Relation.cardinality rel) Rows
      | None -> err "no such table: %s" r.Ast.table)

(* a leaf's rows, with its deferred conjuncts applied *)
let leaf_rel l =
  match l.jl_access with
  | Base (_, Some p) -> Relation.filter p l.jl_rel
  | Base (_, None) | Rows -> l.jl_rel

(* The executor holds no process-global state: every expression compiles
   once per statement ({!Compile.compile}); a compiled closure depends only
   on the expression, its input schema and the enclosing row, so there is
   nothing to cache across statements or to invalidate on DDL. *)

(* no effect; kept only because msqlbench/ reads it *)
let compiled_cache_stats () = (0, 0, 0)

let rec expr_has_subquery = function
  | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ -> true
  | Ast.Lit _ | Ast.Col _ -> false
  | Ast.Binop (_, a, b) -> expr_has_subquery a || expr_has_subquery b
  | Ast.Unop (_, a) -> expr_has_subquery a
  | Ast.Is_null { arg; _ } | Ast.Like { arg; _ } -> expr_has_subquery arg
  | Ast.In_list { arg; items; _ } ->
      expr_has_subquery arg || List.exists expr_has_subquery items
  | Ast.Between { arg; lo; hi; _ } ->
      expr_has_subquery arg || expr_has_subquery lo || expr_has_subquery hi
  | Ast.Agg { arg; _ } -> Option.fold ~none:false ~some:expr_has_subquery arg

let rec iter_plain_cols f = function
  | Ast.Col { qualifier; name } -> f ?qualifier name
  | Ast.Lit _ -> ()
  | Ast.Binop (_, a, b) ->
      iter_plain_cols f a;
      iter_plain_cols f b
  | Ast.Unop (_, a) -> iter_plain_cols f a
  | Ast.Is_null { arg; _ } | Ast.Like { arg; _ } -> iter_plain_cols f arg
  | Ast.In_list { arg; items; _ } ->
      iter_plain_cols f arg;
      List.iter (iter_plain_cols f) items
  | Ast.Between { arg; lo; hi; _ } ->
      iter_plain_cols f arg;
      iter_plain_cols f lo;
      iter_plain_cols f hi
  | Ast.Agg { arg; _ } -> Option.iter (iter_plain_cols f) arg
  | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ -> ()

(* the leaf (and column position within it) a column occurrence denotes *)
let resolve_over_leaves leaves ?qualifier name =
  let hits =
    List.concat
      (List.mapi
         (fun i l ->
           let label_ok =
             match qualifier with
             | Some q -> Sqlcore.Names.equal l.jl_label q
             | None -> true
           in
           if not label_ok then []
           else
             match Schema.find_index (Relation.schema l.jl_rel) name with
             | Some c -> [ (i, c) ]
             | None -> [])
         leaves)
  in
  match hits with [ h ] -> `One h | [] -> `None | _ :: _ :: _ -> `Many

(* hash-join keys compare Int and Float numerically, so classing them
   together is exact; everything else joins only within its own class *)
let ty_class = function
  | Ty.Int | Ty.Float -> `Num
  | Ty.Str -> `Str
  | Ty.Bool -> `Bool

(* The leaves a conjunct's column occurrences denote, or [None] when one
   of them denotes no leaf or several. *)
let leaves_of leaves c =
  let acc = ref (Some []) in
  iter_plain_cols
    (fun ?qualifier name ->
      match !acc, resolve_over_leaves leaves ?qualifier name with
      | Some is, `One (i, _) -> if not (List.mem i is) then acc := Some (i :: is)
      | _ -> acc := None)
    c;
  !acc

(* Every subquery-free conjunct pins each of its column occurrences to
   one FROM leaf. Only then are the leaves filtered and joined by plan:
   otherwise the product path runs, so naming errors surface exactly as
   they would on it. *)
let resolvable leaves conjs =
  List.for_all (fun c -> expr_has_subquery c || leaves_of leaves c <> None) conjs

(* Whether a local conjunct over a table's rows cannot raise: AND, OR and
   NOT over comparisons, BETWEEN and IS NULL whose operands are columns
   and literals all of one comparable class, given per column the value
   classes the rows hold ([Table.value_classes]). *)
let cannot_raise classes schema c =
  let rec bits = function
    | Ast.Lit v -> Some (Value.class_bit v)
    | Ast.Unop (Ast.Neg, (Ast.Lit (Value.Int _ | Value.Float _) as l)) -> bits l
    | Ast.Col { qualifier; name } -> (
        match Schema.find_indices schema ?qualifier name with
        | [ i ] -> Some classes.(i)
        | _ -> None)
    | _ -> None
  in
  let comparable operands =
    match
      List.fold_left
        (fun m e -> match m, bits e with Some m, Some b -> Some (m lor b) | _ -> None)
        (Some 0) operands
    with
    | Some m -> m land (m - 1) = 0
    | None -> false
  in
  let rec total = function
    | Ast.Binop ((Ast.And | Ast.Or), a, b) -> total a && total b
    | Ast.Unop (Ast.Not, a) -> total a
    | Ast.Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b) ->
        comparable [ a; b ]
    | Ast.Between { arg; lo; hi; _ } -> comparable [ arg; lo; hi ]
    | Ast.Is_null { arg; _ } -> bits arg <> None
    | _ -> false
  in
  total c

(* The top-level equi-join conjuncts linking two leaves, as pairs of
   (leaf, column) ends, when both columns key in one class. *)
let join_edges leaves conjs =
  let col_def l c = List.nth (Relation.schema (List.nth leaves l).jl_rel) c in
  List.filter_map
    (function
      | Ast.Binop
          ( Ast.Eq,
            Ast.Col { qualifier = qa; name = na },
            Ast.Col { qualifier = qb; name = nb } ) -> (
          match
            ( resolve_over_leaves leaves ?qualifier:qa na,
              resolve_over_leaves leaves ?qualifier:qb nb )
          with
          | `One (la, ca), `One (lb, cb)
            when la <> lb
                 && ty_class (col_def la ca).Schema.ty
                    = ty_class (col_def lb cb).Schema.ty ->
              Some ((la, ca), (lb, cb))
          | _ -> None)
      | _ -> None)
    conjs

(* Give each leaf the subquery-free conjuncts whose columns all denote
   it. A row such a conjunct rejects fails the whole WHERE under
   three-valued logic, so the join input loses only rows the final filter
   would drop. A leaf stays [Base], and a join may probe its table, when
   the lookup map on its join column pays ([Table.probe_pays]) and none
   of its conjuncts can raise on the table's version; they then run only
   on the rows the join reads. Any other leaf is filtered now, since a
   conjunct that raises must fail the statement even on a row that never
   joins, and is read as [Rows]. *)
let filter_leaves ~predicate leaves edges conjs =
  List.mapi
    (fun i l ->
      let local c = (not (expr_has_subquery c)) && leaves_of leaves c = Some [ i ] in
      let conj = Ast.conjoin (List.filter local conjs) in
      let schema = Relation.schema l.jl_rel in
      let join_col =
        List.find_map
          (fun ((a, ca), (b, cb)) ->
            if a = i then Some ca else if b = i then Some cb else None)
          edges
      in
      match l.jl_access, join_col, conj with
      | Base (tbl, _), Some col, _
        when Table.probe_pays tbl ~col
             && Option.fold ~none:true
                  ~some:(cannot_raise (Table.value_classes tbl) schema)
                  conj ->
          { l with jl_access = Base (tbl, Option.map (predicate schema) conj) }
      | _, _, None -> { l with jl_access = Rows }
      | _, _, Some c ->
          let rel = Relation.filter (predicate schema c) l.jl_rel in
          { l with jl_rel = rel; jl_card = Relation.cardinality rel; jl_access = Rows })
    leaves

(* Plan a multi-leaf FROM clause whose conjuncts are [resolvable] over
   its equi-join [edges]: order the joins greedily by cardinality, and run
   each step as a hash join, or as an index nested loop: a [Base] leaf
   larger than the rows joined so far is probed once per joined row, and
   its deferred conjuncts run on the matches only. Leaves are producted
   only across genuinely unconnected components. Returns None (caller
   falls back to the Cartesian product) when no equi-join conjunct
   exists. The caller re-applies the complete WHERE clause afterwards:
   planning is purely physical and the result set is identical to
   filtering the product. *)
let plan_join_input leaves edges =
  let n = List.length leaves in
  let leaf = Array.of_list leaves in
  if edges = [] then None
  else begin
    let card i = leaf.(i).jl_card in
    let connected i =
      List.exists (fun ((a, _), (b, _)) -> a = i || b = i) edges
    in
    let offsets = Array.make n (-1) in
    let cheapest = function
      | [] -> invalid_arg "cheapest: empty"
      | j0 :: rest ->
          List.fold_left (fun b j -> if card j < card b then j else b) j0 rest
    in
    let start =
      cheapest (List.filter connected (List.init n Fun.id))
    in
    offsets.(start) <- 0;
    let acc = ref (leaf_rel leaf.(start)) in
    let remaining = ref (List.filter (fun i -> i <> start) (List.init n Fun.id)) in
    while !remaining <> [] do
      (* join conjuncts linking the placed prefix to candidate [j], as
         (column offset in the accumulator, column in the candidate) *)
      let touching j =
        List.filter_map
          (fun ((a, ca), (b, cb)) ->
            if offsets.(a) >= 0 && b = j then Some (offsets.(a) + ca, cb)
            else if offsets.(b) >= 0 && a = j then Some (offsets.(b) + cb, ca)
            else None)
          edges
      in
      let next, keys =
        match List.filter (fun j -> touching j <> []) !remaining with
        | [] ->
            (* disconnected component: cross join the cheapest remaining *)
            (cheapest !remaining, [])
        | candidates ->
            let j = cheapest candidates in
            (j, touching j)
      in
      let jl = leaf.(next) in
      let joined =
        match keys, jl.jl_access with
        | [], _ -> Relation.product !acc (leaf_rel jl)
        | (off, col) :: _, Base (tbl, defer) when card next > Relation.cardinality !acc ->
            let find = Table.lookup_eq tbl ~col in
            let keep = Option.value defer ~default:(fun _ -> true) in
            (* newest first: [ra]'s matches, in table order, onto [out] *)
            let rec emit ra out = function
              | [] -> out
              | rb :: rbs -> emit ra (if keep rb then Row.append ra rb :: out else out) rbs
            in
            let out =
              List.fold_left
                (fun out ra -> emit ra out (find (Row.get ra off)))
                [] (Relation.rows !acc)
            in
            Relation.make
              (Relation.schema !acc @ Relation.schema jl.jl_rel)
              (List.rev out)
        | _ :: _, _ -> Relation.hash_join !acc (leaf_rel jl) ~keys
      in
      offsets.(next) <- Schema.arity (Relation.schema !acc);
      acc := joined;
      remaining := List.filter (fun j -> j <> next) !remaining
    done;
    (* restore FROM-clause column order, unless the joins kept it *)
    let idxs =
      List.concat
        (List.mapi
           (fun i l ->
             List.init
               (Schema.arity (Relation.schema l.jl_rel))
               (fun k -> offsets.(i) + k))
           leaves)
    in
    if List.for_all2 ( = ) idxs (List.init (List.length idxs) Fun.id) then Some !acc
    else
      Some
        (Relation.project !acc idxs
           (List.concat_map (fun l -> Relation.schema l.jl_rel) leaves))
  end

(* ---- SELECT ------------------------------------------------------------ *)

let predicate ctx schema pred =
  let f = Compile.compile ctx schema pred in
  fun row -> Eval.truthy (f row)

(* Stable ORDER BY: each item's key list is computed once, then the items
   sort on it. *)
let order_by (order : Ast.order_item list) keys items =
  let rec cmp ka kb (order : Ast.order_item list) =
    match ka, kb, order with
    | a :: ka, b :: kb, o :: order ->
        let c = Value.compare a b in
        let c = if o.Ast.descending then -c else c in
        if c <> 0 then c else cmp ka kb order
    | _ -> 0
  in
  match order with
  | [] -> items
  | _ ->
      List.map (fun x -> (keys x, x)) items
      |> List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb order)
      |> List.map snd

let expand_projections schema (projections : Ast.projection list) =
  (* -> (output column, value expr) list, where the expr is either a
     concrete index (for stars) or an AST expression *)
  List.concat_map
    (fun p ->
      match p with
      | Ast.Star ->
          List.mapi (fun i (c : Schema.column) -> (c, `Index i)) schema
      | Ast.Qualified_star q ->
          let cols =
            List.mapi (fun i c -> (i, c)) schema
            |> List.filter (fun (_, (c : Schema.column)) ->
                   match c.Schema.qualifier with
                   | Some cq -> Names.equal cq q
                   | None -> false)
          in
          if cols = [] then err "unknown table or alias in %s.*" q
          else List.map (fun (i, c) -> (c, `Index i)) cols
      | Ast.Proj_expr (e, alias) ->
          let name = match alias with Some a -> a | None -> derived_name e in
          let ty = infer_expr_ty schema e in
          ([ (Schema.column name ty, `Expr e) ] : (Schema.column * _) list))
    projections

(* Sort [items] (input rows, or groups) by the ORDER BY keys and project
   each to an output row; [apply fns item] runs compiled closures over an
   item. ORDER BY keys are computed against the pre-projection row. *)
let sort_and_project ctx schema (s : Ast.select) apply items =
  let cols = expand_projections schema s.Ast.projections in
  let col_fns =
    List.map
      (fun (_, src) ->
        match src with
        | `Index i -> fun row -> Row.get row i
        | `Expr e -> Compile.compile ctx schema e)
      cols
  in
  let key_fns =
    List.map (fun (o : Ast.order_item) -> Compile.compile ctx schema o.Ast.sort_expr)
      s.Ast.order_by
  in
  Relation.make (List.map fst cols)
    (List.map
       (fun x -> Array.of_list (apply col_fns x))
       (order_by s.Ast.order_by (apply key_fns) items))

let plain_select ctx schema input s =
  sort_and_project ctx schema s
    (fun fns row -> List.map (fun f -> f row) fns)
    (Relation.rows input)

let aggregate_select ctx schema input (s : Ast.select) =
  (* partition rows into groups by the GROUP BY key; without GROUP BY the
     whole input is one group, even when it is empty *)
  let groups =
    match s.Ast.group_by with
    | [] -> [ Relation.rows input ]
    | keys ->
        let key_fns = List.map (Compile.compile ctx schema) keys in
        let tbl = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun row ->
            let k = Value.row_key (List.map (fun f -> f row) key_fns) in
            match Hashtbl.find_opt tbl k with
            | Some rows -> Hashtbl.replace tbl k (row :: rows)
            | None ->
                order := k :: !order;
                Hashtbl.add tbl k [ row ])
          (Relation.rows input);
        List.rev !order |> List.map (fun k -> List.rev (Hashtbl.find tbl k))
  in
  (* HAVING, projections and ORDER BY evaluate once per group: an [Agg]
     node folds over the group, any other column reads the group's first
     row (all NULL for the empty group) *)
  let group = ref [] in
  let ctx = { ctx with Compile.group = Some group } in
  let null_row = Array.make (List.length schema) Value.Null in
  let eval_in rows f =
    group := rows;
    f (match rows with row :: _ -> row | [] -> null_row)
  in
  let kept =
    match s.Ast.having with
    | None -> groups
    | Some pred ->
        let f = Compile.compile ctx schema pred in
        List.filter (fun rows -> Eval.truthy (eval_in rows f)) groups
  in
  sort_and_project ctx schema s (fun fns rows -> List.map (eval_in rows) fns) kept

(* The compilation context of one statement: [outer] is the row enclosing
   a subquery, and a nested SELECT runs with the current row as its own. *)
let rec statement_ctx ~depth ~tables ?txn db outer =
  {
    Compile.outer;
    subquery = (fun env q -> select_unwrapped ~depth ~tables ?txn db ~outer:env q);
    group = None;
  }

and select_unwrapped ~depth ~tables ?txn db ?outer (s : Ast.select) =
  let ctx = statement_ctx ~depth ~tables ?txn db outer in
  let input =
    if s.Ast.from = [] then err "empty FROM clause";
    let leaves =
      List.map
        (load_leaf
           ~eval_select:(fun q ->
             select_unwrapped ~depth:(depth + 1) ~tables ?txn db q)
           ~depth ~tables ?txn db)
        s.Ast.from
    in
    let product leaves =
      match leaves with
      | [] -> assert false
      | l0 :: rest ->
          List.fold_left
            (fun acc l -> Relation.product acc (leaf_rel l))
            (leaf_rel l0) rest
    in
    match leaves, s.Ast.where with
    | _ :: _ :: _, Some pred -> (
        let conjs = Ast.conjuncts pred in
        if not (resolvable leaves conjs) then product leaves
        else
          let edges = join_edges leaves conjs in
          let leaves = filter_leaves ~predicate:(predicate ctx) leaves edges conjs in
          match plan_join_input leaves edges with
          | Some rel -> rel
          | None -> product leaves)
    | _ -> product leaves
  in
  let schema = Relation.schema input in
  let filtered =
    match s.Ast.where with
    | None -> input
    | Some pred -> Relation.filter (predicate ctx schema pred) input
  in
  let result =
    if Ast.is_aggregate_query s then aggregate_select ctx schema filtered s
    else plain_select ctx schema filtered s
  in
  if s.Ast.distinct then Relation.distinct result else result

let select ~tables ?txn db s =
  wrap (fun () -> select_unwrapped ~depth:0 ~tables ?txn db s)

let run_select ?txn db s = select ~tables:(Database.find_table_opt db) ?txn db s

(* ---- DML ---------------------------------------------------------------- *)

(* constraint validation: the prospective full contents of a table *)
let validate_constraints ~table schema rows =
  List.iteri
    (fun i (c : Schema.column) ->
      if c.Schema.not_null then
        List.iter
          (fun row ->
            if Value.is_null (Row.get row i) then
              err "NOT NULL constraint on %s.%s violated" table c.Schema.name)
          rows;
      if c.Schema.unique then begin
        let seen = Hashtbl.create 64 in
        List.iter
          (fun row ->
            let v = Row.get row i in
            if not (Value.is_null v) then begin
              let k = Value.key v in
              if Hashtbl.mem seen k then
                err "UNIQUE constraint on %s.%s violated by %s" table
                  c.Schema.name (Value.to_string v);
              Hashtbl.add seen k ()
            end)
          rows
      end)
    schema

let coerce_for_column (c : Schema.column) v =
  match v, c.Schema.ty with
  | Value.Null, _ -> Value.Null
  | Value.Int i, Ty.Float -> Value.Float (float_of_int i)
  | Value.Int _, Ty.Int
  | Value.Float _, Ty.Float
  | Value.Str _, Ty.Str
  | Value.Bool _, Ty.Bool ->
      v
  | _ ->
      err "value %s does not fit column %s of type %s" (Value.to_string v)
        c.Schema.name (Ty.to_string c.Schema.ty)

let run_insert ~tables db ~txn ~table ~columns ~source =
  wrap (fun () ->
      let tbl = Database.find_table db table in
      let schema = Table.schema tbl in
      let ctx = statement_ctx ~depth:0 ~tables ~txn db None in
      let make_full_row provided_cols values =
        match provided_cols with
        | None ->
            if List.length values <> Schema.arity schema then
              err "INSERT arity mismatch on %s" table;
            Array.of_list (List.map2 coerce_for_column schema values)
        | Some cols ->
            if List.length cols <> List.length values then
              err "INSERT column/value count mismatch on %s" table;
            let pairs = List.combine (List.map Names.canon cols) values in
            Array.of_list
              (List.map
                 (fun (c : Schema.column) ->
                   match List.assoc_opt (Names.canon c.Schema.name) pairs with
                   | Some v -> coerce_for_column c v
                   | None -> Value.Null)
                 schema)
      in
      let rows =
        match source with
        | Ast.Values exprs ->
            List.map
              (fun row_exprs ->
                make_full_row columns
                  (List.map (fun e -> Compile.compile ctx [] e [||]) row_exprs))
              exprs
        | Ast.Query q ->
            let r = select_unwrapped ~depth:0 ~tables ~txn db q in
            List.map
              (fun row -> make_full_row columns (Row.to_list row))
              (Relation.rows r)
      in
      let before = table_rows (Some txn) tbl in
      validate_constraints ~table schema (before @ rows);
      Txn.stage txn tbl ~op:"write" (before @ rows);
      List.length rows)

let run_update ~tables db ~txn ~table ~assignments ~where =
  wrap (fun () ->
      let tbl = Database.find_table db table in
      let schema = Table.schema tbl in
      let ctx = statement_ctx ~depth:0 ~tables ~txn db None in
      let targets =
        List.map
          (fun (cname, e) ->
            match Schema.find_index schema cname with
            | Some i -> (i, List.nth schema i, Compile.compile ctx schema e)
            | None -> err "unknown column %s in UPDATE %s" cname table)
          assignments
      in
      let matches =
        match where with None -> fun _ -> true | Some pred -> predicate ctx schema pred
      in
      (* Evaluate the row set (including subqueries in WHERE) against the
         pre-update state, then apply. *)
      let before = table_rows (Some txn) tbl in
      let planned =
        List.map
          (fun row ->
            if matches row then begin
              let updated = Array.copy row in
              List.iter
                (fun (i, col, f) -> updated.(i) <- coerce_for_column col (f row))
                targets;
              (updated, true)
            end
            else (row, false))
          before
      in
      validate_constraints ~table schema (List.map fst planned);
      Txn.stage txn tbl ~op:"write" (List.map fst planned);
      List.length (List.filter snd planned))

let run_delete ~tables db ~txn ~table ~where =
  wrap (fun () ->
      let tbl = Database.find_table db table in
      let schema = Table.schema tbl in
      let ctx = statement_ctx ~depth:0 ~tables ~txn db None in
      let matches =
        match where with None -> fun _ -> true | Some pred -> predicate ctx schema pred
      in
      let before = table_rows (Some txn) tbl in
      let kept = List.filter (fun r -> not (matches r)) before in
      Txn.stage txn tbl ~op:"write" kept;
      List.length before - List.length kept)

let run_create_table db ~txn ~table ~columns =
  wrap (fun () ->
      let schema =
        List.map
          (fun (c : Ast.column_def) ->
            Schema.column ?width:c.Ast.col_width ~not_null:c.Ast.col_not_null
              ~unique:c.Ast.col_unique c.Ast.col_name c.Ast.col_ty)
          columns
      in
      ignore (Database.create_table db ~name:table schema);
      Txn.log_create txn db table)

let run_drop_table db ~txn ~table =
  wrap (fun () ->
      Txn.log_drop txn db (Database.drop_table db table))

let run_create_view db ~txn ~view ~query =
  wrap (fun () ->
      (* validate by evaluating once; errors surface before registration *)
      ignore (select_unwrapped ~depth:0 ~tables:(Database.find_table_opt db) ~txn db query);
      Database.create_view db ~name:view query;
      Txn.log_create_view txn db view)

let run_drop_view db ~txn ~view =
  wrap (fun () ->
      let q = Database.drop_view db view in
      Txn.log_drop_view txn db view q)

let view_schema db query =
  wrap (fun () ->
      Relation.schema (select_unwrapped ~depth:0 ~tables:(Database.find_table_opt db) db query))

let run_create_index db ~txn ~index ~table ~column =
  wrap (fun () ->
      (match Database.create_index db ~name:index ~table ~column with
      | () -> ()
      | exception Invalid_argument m -> err "%s" m);
      Txn.log_create_index txn db index)

let run_drop_index db ~txn ~index =
  wrap (fun () ->
      let table, column = Database.drop_index db index in
      Txn.log_drop_index txn db index ~table ~column)
