module Ast = Sqlfront.Ast
module Parser = Sqlfront.Parser
type result = Rows of Sqlcore.Relation.t | Affected of int | Done

(* MVCC observations a transport layer can subscribe to; the session
   cannot name the multidatabase trace types (layering), so it reports
   through this small vocabulary and lets the subscriber translate. *)
type obs =
  | Obs_snapshot of int
  | Obs_conflict of { table : string; op : string }

(* One failure type for every entry point: retry layers classify on the
   constructor; [error_to_string] is the text traces and the shell show. *)
type error =
  | Conflict of { table : string; op : string }
  | Injected of { kind : Failure_injector.kind; point : Failure_injector.point }
  | Failed of string

let error_to_string e =
  let transient k =
    if k = Failure_injector.Transient then "transient " else "" in
  match e with
  | Conflict { table; op } ->
      Printf.sprintf
        "transient write-write conflict on %s at %s: first committer wins"
        table op
  | Injected { kind; point = Failure_injector.At_connect } ->
      transient kind ^ "connection refused by service"
  | Injected { kind; point } ->
      Printf.sprintf "%sinjected failure at %s; transaction rolled back"
        (transient kind) (Failure_injector.point_to_string point)
  | Failed m -> m

let failed fmt = Printf.ksprintf (fun m -> Error (Failed m)) fmt

type t = {
  db : Database.t;
  caps : Capabilities.t;
  injector : Failure_injector.t;
  mutable txn : Txn.t option;
  mutable observer : (obs -> unit) option;
  mutable landed : (string * Table.t) list;
      (* the connection's landing tables, keyed by canonical name *)
}

let connect ?injector db caps =
  {
    db;
    caps;
    injector =
      (match injector with Some i -> i | None -> Failure_injector.create ());
    txn = None;
    observer = None;
    landed = [];
  }

let database t = t.db
let capabilities t = t.caps
let injector t = t.injector
let set_observer t obs = t.observer <- obs
let observe t o = match t.observer with Some f -> f o | None -> ()

let txn_state t =
  match t.txn with
  | Some txn when not (Txn.is_finished txn) -> Some (Txn.state txn)
  | Some _ | None -> None

let in_transaction t = txn_state t <> None

let landed t name = List.assoc_opt (Sqlcore.Names.canon name) t.landed

(* name resolution for this connection: its landing tables shadow the
   catalog's *)
let tables t name =
  match landed t name with
  | Some _ as tbl -> tbl
  | None -> Database.find_table_opt t.db name

let land_table t ~name schema rows =
  let tbl = Table.create ~name schema in
  (* committed before every snapshot: the connection's own transaction
     sees its landing table whatever its age *)
  Table.load tbl ~ts:0 rows;
  let k = Sqlcore.Names.canon name in
  t.landed <- (k, tbl) :: List.remove_assoc k t.landed

let current_txn t =
  match t.txn with
  | Some txn when not (Txn.is_finished txn) -> txn
  | Some _ | None ->
      let txn = Txn.begin_ t.db in
      t.txn <- Some txn;
      observe t (Obs_snapshot (Txn.snapshot txn));
      txn

(* the open transaction, for reads that must see its snapshot and staged
   writes; None outside a transaction (read latest committed) *)
let read_txn t =
  match t.txn with
  | Some txn when not (Txn.is_finished txn) -> Some txn
  | Some _ | None -> None

let abort_current t =
  (match t.txn with
  | Some txn when not (Txn.is_finished txn) ->
      Txn.rollback txn
  | Some _ | None -> ());
  t.txn <- None

let injected t point =
  match Failure_injector.fires_kind t.injector point with
  | Some kind ->
      abort_current t;
      Some (Injected { kind; point })
  | None -> None

(* A lost first-committer-wins race: the victim is rolled back, and retry
   layers re-execute on a fresh snapshot. *)
let conflicted t ~table ~op =
  observe t (Obs_conflict { table; op });
  abort_current t;
  Error (Conflict { table; op })

let do_commit t =
  match t.txn with
  | Some txn when not (Txn.is_finished txn) -> (
      match injected t Failure_injector.At_commit with
      | Some e -> Error e
      | None -> (
          match Txn.commit txn with
          | () ->
              t.txn <- None;
              Ok ()
          | exception Txn.Conflict { table; op } -> conflicted t ~table ~op))
  | Some _ | None -> Ok ()

let do_rollback t =
  match t.txn with
  | Some txn when not (Txn.is_finished txn) ->
      Txn.rollback txn;
      t.txn <- None;
      Ok ()
  | Some _ | None -> Ok ()

let do_prepare t =
  if not (Capabilities.supports_2pc t.caps) then
    failed "engine %s is autocommit-only: no prepared-to-commit state"
      t.caps.Capabilities.engine_name
  else
    match t.txn with
    | Some txn when Txn.state txn = Txn.Active -> (
        match injected t Failure_injector.At_prepare with
        | Some e -> Error e
        | None -> (
            match Txn.prepare txn with
            | () -> Ok ()
            | exception Txn.Conflict { table; op } -> conflicted t ~table ~op))
    | Some txn when Txn.state txn = Txn.Prepared -> Ok ()
    | Some _ | None -> failed "no active transaction to prepare"

(* Run a DML/DDL body inside the session's transaction discipline. *)
let run_write t ~is_ddl ~forces_commit body =
  let ddl_autocommits =
    is_ddl && t.caps.Capabilities.ddl_behavior = Capabilities.Ddl_autocommits
  in
  (* Oracle-style DDL commits prior uncommitted work first; if that commit
     fails, the DDL does not run. *)
  let ready =
    match injected t Failure_injector.At_execute with
    | Some e -> Error e
    | None -> if ddl_autocommits then do_commit t else Ok ()
  in
  match ready with
  | Error _ as e -> e
  | Ok () -> (
      match txn_state t with
      | Some Txn.Prepared ->
          failed "cannot execute statements in a prepared transaction"
      | Some _ | None -> (
          let txn = current_txn t in
          match body txn with
          | exception Exec.Error m ->
              abort_current t;
              Error (Failed m)
          | exception Txn.Conflict { table; op } -> conflicted t ~table ~op
          | r ->
              let autocommit =
                t.caps.Capabilities.commit_mode = Capabilities.Autocommit
                || forces_commit || ddl_autocommits
              in
              if autocommit then
                match do_commit t with Ok () -> Ok r | Error _ as e -> e
              else Ok r))

let exec t stmt =
  let tables = tables t in
  match (stmt : Ast.stmt) with
  | Ast.Select s -> (
      (* inside a transaction the SELECT reads the begin snapshot plus the
         transaction's own staged writes; outside, the latest committed *)
      match Exec.select ~tables ?txn:(read_txn t) t.db s with
      | r -> Ok (Rows r)
      | exception Exec.Error m -> Error (Failed m))
  | Ast.Begin_txn ->
      if not (Capabilities.supports_2pc t.caps) then
        failed "engine %s is autocommit-only: transactions not supported"
          t.caps.Capabilities.engine_name
      else if in_transaction t then failed "transaction already in progress"
      else begin
        ignore (current_txn t);
        Ok Done
      end
  | Ast.Commit_txn -> Result.map (fun () -> Done) (do_commit t)
  | Ast.Rollback_txn -> Result.map (fun () -> Done) (do_rollback t)
  | Ast.Prepare_txn -> Result.map (fun () -> Done) (do_prepare t)
  | Ast.Insert { table; columns; source } ->
      run_write t ~is_ddl:false ~forces_commit:t.caps.Capabilities.insert_commits
        (fun txn ->
          Affected (Exec.run_insert ~tables t.db ~txn ~table ~columns ~source))
  | Ast.Update { table; assignments; where } ->
      run_write t ~is_ddl:false ~forces_commit:false (fun txn ->
          Affected (Exec.run_update ~tables t.db ~txn ~table ~assignments ~where))
  | Ast.Delete { table; where } ->
      run_write t ~is_ddl:false ~forces_commit:false (fun txn ->
          Affected (Exec.run_delete ~tables t.db ~txn ~table ~where))
  | Ast.Create_table { table; columns } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.create_commits
        (fun txn ->
          Exec.run_create_table t.db ~txn ~table ~columns;
          Done)
  | Ast.Drop_table { table } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.drop_commits
        (fun txn ->
          (match landed t table with
          | Some tbl -> t.landed <- List.filter (fun (_, l) -> l != tbl) t.landed
          | None -> Exec.run_drop_table t.db ~txn ~table);
          Done)
  | Ast.Create_view { view; view_query } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.create_commits
        (fun txn ->
          Exec.run_create_view t.db ~txn ~view ~query:view_query;
          Done)
  | Ast.Drop_view { view } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.drop_commits
        (fun txn ->
          Exec.run_drop_view t.db ~txn ~view;
          Done)
  | Ast.Create_index { index; idx_table; idx_column } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.create_commits
        (fun txn ->
          Exec.run_create_index t.db ~txn ~index ~table:idx_table
            ~column:idx_column;
          Done)
  | Ast.Drop_index { index } ->
      run_write t ~is_ddl:true ~forces_commit:t.caps.Capabilities.drop_commits
        (fun txn ->
          Exec.run_drop_index t.db ~txn ~index;
          Done)

let exec_sql t sql =
  match Database.parse_stmt t.db sql with
  | stmt -> exec t stmt
  | exception Parser.Error (m, l, c) -> failed "parse error at %d:%d: %s" l c m

let exec_script t sql =
  match Database.parse_script t.db sql with
  | exception Parser.Error (m, l, c) -> failed "parse error at %d:%d: %s" l c m
  | stmts ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
            match exec t s with Ok r -> go (r :: acc) rest | Error _ as e -> e)
      in
      go [] stmts

let commit t = do_commit t
let rollback t = do_rollback t
let prepare t = do_prepare t

(* a prepared transaction outlives its session: the participant promised
   to await the coordinator's verdict, which may be a logged commit *)
let close t =
  t.landed <- [];
  if txn_state t = Some Txn.Active then ignore (do_rollback t)

let result_to_string = function
  | Rows r -> Sqlcore.Relation.to_string r
  | Affected n -> Printf.sprintf "%d row(s) affected" n
  | Done -> "ok"
