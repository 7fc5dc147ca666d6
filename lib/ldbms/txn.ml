(* Local transactions under snapshot isolation. A transaction reads the
   table versions visible at its begin snapshot plus its own staged
   writes; DML stages whole-table intents that are installed as one new
   committed version at commit time. First committer wins: staging,
   preparing, or committing against a table whose current version is newer
   than the snapshot (or reserved by another preparer) raises [Conflict].
   DDL keeps the old in-place undo log — the catalog is not versioned. *)

type state = Active | Prepared | Committed | Aborted

exception Conflict of { table : string; op : string }

type intent = {
  it_table : Table.t;
  mutable it_rows : Sqlcore.Row.t list;  (* full prospective contents *)
}

type t = {
  db : Database.t;
  id : int;
  snapshot : int;
  mutable state : state;
  mutable intents : intent list;  (* newest first *)
  mutable undo : (unit -> unit) list;  (* DDL undo, newest first *)
  mutable released : bool;  (* snapshot and reservations given back *)
}

let begin_ db =
  {
    db;
    id = Database.next_txn_id db;
    snapshot = Database.acquire_snapshot db;
    state = Active;
    intents = [];
    undo = [];
    released = false;
  }

let state t = t.state
let snapshot t = t.snapshot

let check_modifiable t =
  match t.state with
  | Active -> ()
  | Prepared -> invalid_arg "Txn: cannot modify a prepared transaction"
  | Committed | Aborted -> invalid_arg "Txn: transaction already finished"

(* First-committer-wins test for one table: someone committed a newer
   version after our snapshot, or a competing transaction has prepared a
   write on it. *)
let check_write t tbl ~op =
  if Table.committed_at tbl > t.snapshot then
    raise (Conflict { table = Table.name tbl; op });
  match Table.reserved_by tbl with
  | Some id when id <> t.id -> raise (Conflict { table = Table.name tbl; op })
  | _ -> ()

let find_intent t tbl = List.find_opt (fun it -> it.it_table == tbl) t.intents

let read t tbl =
  match find_intent t tbl with
  | Some it -> `Frozen it.it_rows
  | None ->
      if Table.committed_at tbl <= t.snapshot then `Current
      else `Frozen (Table.rows_at tbl ~ts:t.snapshot)

let stage t tbl ~op rows =
  check_modifiable t;
  check_write t tbl ~op;
  match find_intent t tbl with
  | Some it -> it.it_rows <- rows
  | None -> t.intents <- { it_table = tbl; it_rows = rows } :: t.intents

let log_create t db name =
  check_modifiable t;
  t.undo <- (fun () -> ignore (Database.drop_table db name)) :: t.undo

let log_drop t db dropped =
  check_modifiable t;
  t.undo <- (fun () -> Database.restore_table db dropped) :: t.undo

let log_create_view t db name =
  check_modifiable t;
  t.undo <- (fun () -> ignore (Database.drop_view db name)) :: t.undo

let log_drop_view t db name q =
  check_modifiable t;
  t.undo <- (fun () -> Database.restore_view db ~name q) :: t.undo

let log_create_index t db name =
  check_modifiable t;
  t.undo <- (fun () -> ignore (Database.drop_index db name)) :: t.undo

let log_drop_index t db name ~table ~column =
  check_modifiable t;
  t.undo <- (fun () -> Database.restore_index db ~name ~table ~column) :: t.undo

let release t =
  if not t.released then begin
    t.released <- true;
    Database.release_snapshot t.db t.snapshot;
    List.iter
      (fun it -> Table.release_reservation it.it_table ~txn:t.id)
      t.intents
  end

let prepare t =
  match t.state with
  | Active ->
      (* first-preparer-wins: validate and reserve every written table now,
         so a participant that promised in phase one can never lose a
         conflict race before the decision arrives *)
      List.iter (fun it -> check_write t it.it_table ~op:"prepare") t.intents;
      List.iter (fun it -> Table.reserve it.it_table ~txn:t.id) t.intents;
      t.state <- Prepared
  | Prepared | Committed | Aborted ->
      invalid_arg "Txn.prepare: transaction not active"

let commit t =
  match t.state with
  | Active | Prepared ->
      (* a prepared transaction holds reservations and was validated in
         phase one; its commit must not be able to fail locally *)
      if t.state = Active then
        List.iter (fun it -> check_write t it.it_table ~op:"commit") t.intents;
      (* drop our snapshot before pruning so it does not pin the very
         versions this commit supersedes *)
      release t;
      if t.intents <> [] then begin
        let ts = Database.next_commit_ts t.db in
        let keep_since = Database.oldest_snapshot t.db in
        List.iter
          (fun it -> Table.install it.it_table ~ts ~keep_since it.it_rows)
          (List.rev t.intents)
      end;
      t.state <- Committed;
      t.undo <- [];
      t.intents <- []
  | Committed | Aborted -> invalid_arg "Txn.commit: transaction already finished"

let rollback t =
  match t.state with
  | Active | Prepared ->
      (* staged intents are simply discarded; only DDL undoes in place *)
      List.iter (fun undo -> undo ()) t.undo;
      release t;
      t.state <- Aborted;
      t.undo <- [];
      t.intents <- []
  | Committed | Aborted -> invalid_arg "Txn.rollback: transaction already finished"

let is_finished t = match t.state with Committed | Aborted -> true | Active | Prepared -> false

