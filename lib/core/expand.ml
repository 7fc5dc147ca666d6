module S = Sqlfront.Ast
module Names = Sqlcore.Names
module Like = Sqlcore.Like
module Schema = Sqlcore.Schema

exception Error of string
exception Not_pertinent of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt
let skip fmt = Printf.ksprintf (fun m -> raise (Not_pertinent m)) fmt

type elementary = {
  edb : string;
  use : Ast.use_item;
  stmts : Sqlfront.Ast.stmt list;
}

type global_ref = {
  gdb : string;
  gtable : string;
  galias : string option;
  gschema : Sqlcore.Schema.t;
  gcard : int option;
}

type expansion =
  | Replicated of elementary list
  | Global of { gselect : Sqlfront.Ast.select; grefs : global_ref list }
  | Transfer of {
      tdb : string;
      tuse : Ast.use_item;
      ttable : string;
      tcolumns : string list option;
      gselect : Sqlfront.Ast.select;
      grefs : global_ref list;
    }

(* ---- LET bindings -------------------------------------------------------- *)

let substitution_for gdd ~db lets =
  let of_let (l : Ast.let_def) =
    let matching =
      List.filter
        (fun binding ->
          match binding with
          | table :: _ -> Gdd.find_table gdd ~db table <> None
          | [] -> false)
        l.Ast.bindings
    in
    match matching with
    | [] -> []
    | [ binding ] ->
        (* validate column components against the bound table *)
        (match binding with
        | table :: columns ->
            let schema = Option.get (Gdd.find_table gdd ~db table) in
            List.iter
              (fun c ->
                if not (Schema.mem schema c) then
                  err "LET binding %s: column %s not in %s.%s"
                    (String.concat "." binding) c db table)
              columns
        | [] -> ());
        List.combine (List.map Names.canon l.Ast.var_path) binding
    | _ :: _ :: _ ->
        err "LET %s: several bindings match database %s"
          (String.concat "." l.Ast.var_path) db
  in
  List.concat_map of_let lets

(* ---- name classification -------------------------------------------------- *)

let optional_marker name = String.length name > 0 && name.[0] = '~'
let strip_optional name = String.sub name 1 (String.length name - 1)

(* ---- resolution scopes ---------------------------------------------------- *)

type scope_entry = { label : string; schema : Schema.t }
(* [scopes]: innermost scope first, each a list of FROM entries *)

type rctx = {
  db : string;
  gdd : Gdd.t;
  subst : (string * string) list;  (* canonical var -> concrete name *)
}

let apply_subst ctx name =
  match List.assoc_opt (Names.canon name) ctx.subst with
  | Some concrete -> concrete
  | None -> name

(* All (label, column) pairs matching [pattern] in one scope level,
   optionally restricted to entries labelled [qualifier]. *)
let matches_in_level ?qualifier pattern level =
  let entries =
    match qualifier with
    | None -> level
    | Some q -> List.filter (fun e -> Names.equal e.label q) level
  in
  List.concat_map
    (fun e ->
      Gdd.match_columns e.schema ~pattern
      |> List.map (fun c -> (e.label, c)))
    entries

let resolve_column ctx scopes ?qualifier name =
  let qualifier = Option.map (apply_subst ctx) qualifier in
  let pattern = apply_subst ctx name in
  let rec search = function
    | [] -> []
    | level :: outer -> (
        match matches_in_level ?qualifier pattern level with
        | [] -> search outer
        | ms -> ms)
  in
  (search scopes, pattern, qualifier)

(* ---- expression rewriting -------------------------------------------------- *)

let rec rewrite_expr ctx scopes (e : S.expr) : S.expr =
  match e with
  | S.Lit _ -> e
  | S.Col { qualifier; name } -> (
      if optional_marker name then
        err "optional column ~%s may only appear in a SELECT list"
          (strip_optional name);
      let ms, pattern, qualifier = resolve_column ctx scopes ?qualifier name in
      match ms with
      | [] -> skip "column %s not present in %s" pattern ctx.db
      | [ (_, concrete) ] -> S.Col { qualifier; name = concrete }
      | _ :: _ :: _ ->
          if Like.has_wildcard pattern then
            err "multiple identifier %s is ambiguous in a predicate (database %s)"
              pattern ctx.db
          else
            (* a plain duplicated column name: leave qualification to the
               local engine, which will report the ambiguity if truly used
               ambiguously *)
            S.Col { qualifier; name = pattern })
  | S.Binop (op, a, b) -> S.Binop (op, rewrite_expr ctx scopes a, rewrite_expr ctx scopes b)
  | S.Unop (op, a) -> S.Unop (op, rewrite_expr ctx scopes a)
  | S.Is_null r -> S.Is_null { r with arg = rewrite_expr ctx scopes r.arg }
  | S.Like r -> S.Like { r with arg = rewrite_expr ctx scopes r.arg }
  | S.In_list r ->
      S.In_list
        {
          r with
          arg = rewrite_expr ctx scopes r.arg;
          items = List.map (rewrite_expr ctx scopes) r.items;
        }
  | S.Between r ->
      S.Between
        {
          r with
          arg = rewrite_expr ctx scopes r.arg;
          lo = rewrite_expr ctx scopes r.lo;
          hi = rewrite_expr ctx scopes r.hi;
        }
  | S.Agg r -> S.Agg { r with arg = Option.map (rewrite_expr ctx scopes) r.arg }
  | S.Scalar_subquery q -> S.Scalar_subquery (rewrite_select ctx scopes q)
  | S.In_subquery r ->
      S.In_subquery
        {
          r with
          arg = rewrite_expr ctx scopes r.arg;
          query = rewrite_select ctx scopes r.query;
        }
  | S.Exists q -> S.Exists (rewrite_select ctx scopes q)

(* Resolve a FROM table reference to its candidate concrete tables. *)
and table_candidates ctx (r : S.table_ref) : (string * Schema.t) list =
  if String.contains r.S.table '.' then
    err "database-qualified table %s cannot be mixed into a multiple query"
      r.S.table;
  let pattern = apply_subst ctx r.S.table in
  match Gdd.match_tables ctx.gdd ~db:ctx.db ~pattern with
  | [] -> skip "no table matching %s in %s" pattern ctx.db
  | ts -> ts

and rewrite_select ctx scopes (q : S.select) : S.select =
  (* inner FROM: patterns must resolve uniquely inside subqueries *)
  let resolved =
    List.map
      (fun (r : S.table_ref) ->
        match table_candidates ctx r with
        | [ (name, schema) ] -> (r, name, schema)
        | ts ->
            err "table pattern %s matches %d tables inside a nested query"
              r.S.table (List.length ts))
      q.S.from
  in
  rewrite_select_resolved ctx scopes q
    (List.map (fun (r, name, schema) -> ((r : S.table_ref), name, schema)) resolved)

(* Rewrite a SELECT whose FROM candidates are already chosen. *)
and rewrite_select_resolved ctx outer_scopes (q : S.select)
    (resolved : (S.table_ref * string * Schema.t) list) : S.select =
  let level =
    List.map
      (fun ((r : S.table_ref), name, schema) ->
        { label = Option.value r.S.alias ~default:name; schema })
      resolved
  in
  let scopes = level :: outer_scopes in
  let from =
    List.map
      (fun ((r : S.table_ref), name, _) -> { S.table = name; alias = r.S.alias })
      resolved
  in
  let projections = List.concat_map (rewrite_projection ctx scopes) q.S.projections in
  if projections = [] then skip "no projection survives in %s" ctx.db;
  {
    S.distinct = q.S.distinct;
    projections;
    from;
    where = Option.map (rewrite_expr ctx scopes) q.S.where;
    group_by = List.map (rewrite_expr ctx scopes) q.S.group_by;
    having = Option.map (rewrite_expr ctx scopes) q.S.having;
    order_by =
      List.map
        (fun (o : S.order_item) ->
          { o with S.sort_expr = rewrite_expr ctx scopes o.S.sort_expr })
        q.S.order_by;
  }

and rewrite_projection ctx scopes (p : S.projection) : S.projection list =
  match p with
  | S.Star | S.Qualified_star _ -> [ p ]
  | S.Proj_expr (S.Col { qualifier; name }, alias) -> (
      let optional = optional_marker name in
      let name = if optional then strip_optional name else name in
      let ms, pattern, qualifier = resolve_column ctx scopes ?qualifier name in
      match ms with
      | [] ->
          if optional then []
          else skip "column %s not present in %s" pattern ctx.db
      | [ (_, concrete) ] -> [ S.Proj_expr (S.Col { qualifier; name = concrete }, alias) ]
      | many ->
          (* a projection pattern expands to every matching column *)
          List.map
            (fun (_, concrete) ->
              S.Proj_expr (S.Col { qualifier; name = concrete }, alias))
            many)
  | S.Proj_expr (e, alias) -> [ S.Proj_expr (rewrite_expr ctx scopes e, alias) ]

(* ---- statement rewriting --------------------------------------------------- *)

(* cartesian product of per-ref candidate lists *)
let rec combinations = function
  | [] -> [ [] ]
  | cs :: rest ->
      let tails = combinations rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) cs

let rewrite_dml_target ctx table =
  let pattern = apply_subst ctx table in
  match Gdd.match_tables ctx.gdd ~db:ctx.db ~pattern with
  | [] -> skip "no table matching %s in %s" pattern ctx.db
  | ts -> ts

let unique_column ctx schema ~table name =
  let pattern = apply_subst ctx name in
  match Gdd.match_columns schema ~pattern with
  | [ c ] -> c
  | [] -> skip "column %s not in %s.%s" pattern ctx.db table
  | _ :: _ :: _ -> err "column pattern %s ambiguous in %s.%s" pattern ctx.db table

let rewrite_stmt ctx (stmt : S.stmt) : S.stmt list =
  match stmt with
  | S.Select q ->
      let candidate_lists = List.map (table_candidates ctx) q.S.from in
      let combos = combinations candidate_lists in
      let for_combo combo =
        let resolved =
          List.map2 (fun r (name, schema) -> (r, name, schema)) q.S.from combo
        in
        match rewrite_select_resolved ctx [] q resolved with
        | q' -> Either.Left (S.Select q')
        | exception Not_pertinent m -> Either.Right m
      in
      let stmts, reasons = List.partition_map for_combo combos in
      if stmts = [] then skip "%s" (String.concat "; " reasons) else stmts
  | S.Update { table; assignments; where } ->
      rewrite_dml_target ctx table
      |> List.map (fun (tname, schema) ->
             let scopes = [ [ { label = tname; schema } ] ] in
             let assignments =
               List.map
                 (fun (c, e) ->
                   (unique_column ctx schema ~table:tname c, rewrite_expr ctx scopes e))
                 assignments
             in
             S.Update
               {
                 table = tname;
                 assignments;
                 where = Option.map (rewrite_expr ctx scopes) where;
               })
  | S.Delete { table; where } ->
      rewrite_dml_target ctx table
      |> List.map (fun (tname, schema) ->
             let scopes = [ [ { label = tname; schema } ] ] in
             S.Delete
               { table = tname; where = Option.map (rewrite_expr ctx scopes) where })
  | S.Insert { table; columns; source } ->
      rewrite_dml_target ctx table
      |> List.map (fun (tname, schema) ->
             let columns =
               Option.map
                 (List.map (fun c -> unique_column ctx schema ~table:tname c))
                 columns
             in
             let source =
               match source with
               | S.Values rows ->
                   S.Values (List.map (List.map (rewrite_expr ctx [])) rows)
               | S.Query q -> S.Query (rewrite_select ctx [] q)
             in
             S.Insert { table = tname; columns; source })
  | S.Create_table _ | S.Create_view _ | S.Create_index _ ->
      (* table/view/index definition in multiple databases: replicate
         verbatim *)
      [ stmt ]
  | S.Drop_view _ | S.Drop_index _ -> [ stmt ]
  | S.Drop_table { table } ->
      rewrite_dml_target ctx table
      |> List.map (fun (tname, _) -> S.Drop_table { table = tname })
  | S.Begin_txn | S.Commit_txn | S.Rollback_txn | S.Prepare_txn ->
      err "transaction control statements are not multiple queries"

(* ---- global (database-qualified) queries ----------------------------------- *)

let split_db_table name =
  match String.index_opt name '.' with
  | Some i ->
      Some (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> None

let resolve_global gdd (q : Ast.query) (sel : S.select) =
  let scope_db name =
    match Ast.find_in_scope q.Ast.scope name with
    | Some u -> u.Ast.db
    | None -> err "database %s is not in the USE scope" name
  in
  let resolve_ref (r : S.table_ref) =
    match split_db_table r.S.table with
    | Some (dbname, table) -> (
        if Like.has_wildcard table then
          err "patterns cannot be combined with database-qualified tables";
        let db = scope_db dbname in
        match Gdd.find_table gdd ~db table with
        | Some schema ->
            {
              gdb = db;
              gtable = table;
              galias = r.S.alias;
              gschema = schema;
              gcard = Gdd.cardinality gdd ~db ~table;
            }
        | None -> err "table %s not found in database %s" table db)
    | None -> (
        if Like.has_wildcard r.S.table then
          err "patterns cannot be combined with database-qualified tables";
        let hits =
          List.filter_map
            (fun (u : Ast.use_item) ->
              Gdd.find_table gdd ~db:u.Ast.db r.S.table
              |> Option.map (fun schema -> (u.Ast.db, schema)))
            q.Ast.scope
        in
        match hits with
        | [ (db, schema) ] ->
            {
              gdb = db;
              gtable = r.S.table;
              galias = r.S.alias;
              gschema = schema;
              gcard = Gdd.cardinality gdd ~db ~table:r.S.table;
            }
        | [] -> err "table %s not found in any scope database" r.S.table
        | _ :: _ :: _ ->
            err "table %s exists in several scope databases; qualify it" r.S.table)
  in
  let grefs = List.map resolve_ref sel.S.from in
  let from =
    List.map2
      (fun (r : S.table_ref) g -> { S.table = g.gtable; alias = r.S.alias })
      sel.S.from grefs
  in
  ({ sel with S.from }, grefs)

(* ---- entry point ------------------------------------------------------------ *)

let has_db_qualified_tables (stmt : S.stmt) =
  let of_select (s : S.select) =
    List.exists (fun (r : S.table_ref) -> String.contains r.S.table '.') s.S.from
  in
  match stmt with
  | S.Select s -> of_select s
  | S.Insert { table; source; _ } ->
      String.contains table '.'
      || (match source with S.Query q -> of_select q | S.Values _ -> false)
  | S.Update { table; _ } | S.Delete { table; _ } | S.Drop_table { table } ->
      String.contains table '.'
  | S.Create_table _ | S.Create_view _ | S.Drop_view _ | S.Create_index _
  | S.Drop_index _ | S.Begin_txn | S.Commit_txn | S.Rollback_txn
  | S.Prepare_txn ->
      false

let expand gdd (q : Ast.query) : expansion =
  List.iter
    (fun (u : Ast.use_item) ->
      if not (Gdd.has_database gdd u.Ast.db) then
        err "database %s is not known to the GDD (IMPORT it first)" u.Ast.db)
    q.Ast.scope;
  if has_db_qualified_tables q.Ast.body then begin
    match q.Ast.body with
    | S.Select sel ->
        let gselect, grefs = resolve_global gdd q sel in
        Global { gselect; grefs }
    | S.Insert { table; columns; source = S.Query src } ->
        (* data transfer: resolve the target database, then the source as a
           global query *)
        let tuse, ttable =
          match split_db_table table with
          | Some (dbname, bare) -> (
              match Ast.find_in_scope q.Ast.scope dbname with
              | Some u -> (u, bare)
              | None -> err "database %s is not in the USE scope" dbname)
          | None -> (
              let hits =
                List.filter
                  (fun (u : Ast.use_item) ->
                    Gdd.find_table gdd ~db:u.Ast.db table <> None)
                  q.Ast.scope
              in
              match hits with
              | [ u ] -> (u, table)
              | [] -> err "table %s not found in any scope database" table
              | _ :: _ :: _ ->
                  err "table %s exists in several scope databases; qualify it"
                    table)
        in
        (match Gdd.find_table gdd ~db:tuse.Ast.db ttable with
        | Some _ -> ()
        | None -> err "table %s not found in database %s" ttable tuse.Ast.db);
        let gselect, grefs = resolve_global gdd q src in
        Transfer
          {
            tdb = tuse.Ast.db;
            tuse;
            ttable;
            tcolumns = columns;
            gselect;
            grefs;
          }
    | S.Update { table; _ } | S.Delete { table; _ } | S.Insert { table; _ }
    | S.Drop_table { table } -> (
        (* a database-qualified DML targets exactly one database *)
        match split_db_table table with
        | Some (dbname, bare) -> (
            match Ast.find_in_scope q.Ast.scope dbname with
            | None -> err "database %s is not in the USE scope" dbname
            | Some u ->
                let rewrite_target (stmt : S.stmt) : S.stmt =
                  match stmt with
                  | S.Update r -> S.Update { r with table = bare }
                  | S.Delete r -> S.Delete { r with table = bare }
                  | S.Insert r -> S.Insert { r with table = bare }
                  | S.Drop_table _ -> S.Drop_table { table = bare }
                  | _ -> stmt
                in
                let ctx =
                  {
                    db = u.Ast.db;
                    gdd;
                    subst = substitution_for gdd ~db:u.Ast.db q.Ast.lets;
                  }
                in
                (match rewrite_stmt ctx (rewrite_target q.Ast.body) with
                | stmts -> Replicated [ { edb = u.Ast.db; use = u; stmts } ]
                | exception Not_pertinent m -> err "%s" m))
        | None -> assert false)
    | S.Create_table _ | S.Create_view _ | S.Drop_view _ | S.Create_index _
    | S.Drop_index _ | S.Begin_txn | S.Commit_txn | S.Rollback_txn
    | S.Prepare_txn ->
        err "unsupported database-qualified statement"
  end
  else
    let per_db (u : Ast.use_item) =
      let ctx =
        { db = u.Ast.db; gdd; subst = substitution_for gdd ~db:u.Ast.db q.Ast.lets }
      in
      match rewrite_stmt ctx q.Ast.body with
      | stmts -> Either.Left { edb = u.Ast.db; use = u; stmts }
      | exception Not_pertinent m -> Either.Right m
    in
    let elems, reasons = List.partition_map per_db q.Ast.scope in
    if elems = [] then
      err "query is not pertinent for any database in its scope: %s"
        (String.concat "; " reasons)
    else Replicated elems
