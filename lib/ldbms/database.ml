type t = {
  name : string;
  tables : (string, Table.t) Hashtbl.t;
  views : (string, string * Sqlfront.Ast.select) Hashtbl.t;
  indexes : (string, string * string) Hashtbl.t;  (* index key -> table, column *)
  (* Site-local MVCC bookkeeping. Each database is an autonomous LDBS, so
     it owns its timestamp oracle: commit timestamps and snapshots from
     different sites are never compared. *)
  mutable ts : int;  (* monotone timestamp oracle; 0 = initial load *)
  mutable snapshots : int list;  (* active snapshot timestamps, with dups *)
  mutable txn_seq : int;  (* local transaction id source *)
  mutable stamp : int;  (* change stamp; apart from [ts], so DDL draws none *)
  (* Statement cache, the database's shared SQL area: text -> parse, one
     table per parser entry point, because the two accept different texts
     (";SELECT 1" is a one-statement script but not a statement). It lives
     here rather than in a session because, with pooling off, every
     statement runs on a fresh session. *)
  scripts : (string, Sqlfront.Ast.stmt list) Hashtbl.t;
  stmts : (string, Sqlfront.Ast.stmt) Hashtbl.t;
}

exception No_such_table of string
exception Table_exists of string
exception View_exists of string
exception No_such_view of string
exception Index_exists of string
exception No_such_index of string

let create name =
  {
    name;
    tables = Hashtbl.create 16;
    views = Hashtbl.create 8;
    indexes = Hashtbl.create 8;
    ts = 0;
    snapshots = [];
    txn_seq = 0;
    stamp = 0;
    scripts = Hashtbl.create 16;
    stmts = Hashtbl.create 16;
  }
let name t = t.name

(* Parsing is a pure function of the text and the AST is immutable, so an
   entry never goes stale: no invalidation, only a bound. A parse error
   raises out of [parse] before anything is stored. *)
let cached table parse text =
  match Hashtbl.find_opt table text with
  | Some v -> v
  | None ->
      let v = parse text in
      if Hashtbl.length table > 128 then Hashtbl.reset table;
      Hashtbl.replace table text v;
      v

let parse_script t text = cached t.scripts Sqlfront.Parser.parse_script text
let parse_stmt t text = cached t.stmts Sqlfront.Parser.parse_stmt text
let cached_statements t = Hashtbl.length t.scripts + Hashtbl.length t.stmts

let change_stamp t = t.stamp
let changed t = t.stamp <- t.stamp + 1

let next_commit_ts t =
  changed t;
  t.ts <- t.ts + 1;
  t.ts

let next_txn_id t =
  t.txn_seq <- t.txn_seq + 1;
  t.txn_seq

(* A snapshot is simply the oracle's current value: it sees every version
   committed so far and nothing after. *)
let acquire_snapshot t =
  let s = t.ts in
  t.snapshots <- s :: t.snapshots;
  s

let release_snapshot t s =
  let rec drop_one = function
    | [] -> []
    | x :: rest -> if x = s then rest else x :: drop_one rest
  in
  t.snapshots <- drop_one t.snapshots

let oldest_snapshot t = List.fold_left min max_int t.snapshots
let key n = Sqlcore.Names.canon n

let table_names t =
  Hashtbl.fold (fun _ tbl acc -> Table.name tbl :: acc) t.tables []
  |> List.sort Sqlcore.Names.compare

let find_table_opt t n = Hashtbl.find_opt t.tables (key n)

let find_table t n =
  match find_table_opt t n with
  | Some tbl -> tbl
  | None -> raise (No_such_table n)

let create_table t ~name schema =
  if Hashtbl.mem t.tables (key name) then raise (Table_exists name);
  if Hashtbl.mem t.views (key name) then raise (View_exists name);
  let tbl = Table.create ~name schema in
  Hashtbl.add t.tables (key name) tbl;
  changed t;
  tbl

type dropped = {
  table : Table.t;
  index_entries : (string * (string * string)) list;  (* key, (table, column) *)
}

(* A table's index entries go with it, so a re-created table starts with
   none and the names are free again. *)
let drop_table t n =
  match find_table_opt t n with
  | Some tbl ->
      Hashtbl.remove t.tables (key n);
      changed t;
      let index_entries =
        Hashtbl.fold
          (fun k ((tb, _) as entry) acc ->
            if Sqlcore.Names.equal tb (Table.name tbl) then (k, entry) :: acc
            else acc)
          t.indexes []
      in
      List.iter (fun (k, _) -> Hashtbl.remove t.indexes k) index_entries;
      { table = tbl; index_entries }
  | None -> raise (No_such_table n)

let restore_table t { table; index_entries } =
  Hashtbl.replace t.tables (key (Table.name table)) table;
  changed t;
  List.iter (fun (k, entry) -> Hashtbl.replace t.indexes k entry) index_entries

let catalog t =
  table_names t |> List.map (fun n -> (n, Table.schema (find_table t n)))

let load t ~name schema rows =
  (* a replaced table's index entries go with it *)
  if Hashtbl.mem t.tables (key name) then ignore (drop_table t name);
  let tbl = create_table t ~name schema in
  (* loaded data is a committed version: a snapshot taken before the load
     must not observe it, and keeps its frozen view *)
  Table.load tbl ~ts:(next_commit_ts t) rows

let find_view_opt t n = Option.map snd (Hashtbl.find_opt t.views (key n))

let create_view t ~name q =
  if Hashtbl.mem t.tables (key name) then raise (Table_exists name);
  if Hashtbl.mem t.views (key name) then raise (View_exists name);
  Hashtbl.replace t.views (key name) (name, q);
  changed t

let drop_view t n =
  match Hashtbl.find_opt t.views (key n) with
  | Some (_, q) ->
      Hashtbl.remove t.views (key n);
      changed t;
      q
  | None -> raise (No_such_view n)

let restore_view t ~name q =
  Hashtbl.replace t.views (key name) (name, q);
  changed t

let create_index t ~name ~table ~column =
  if Hashtbl.mem t.indexes (key name) then raise (Index_exists name);
  let tbl = find_table t table in
  if not (Sqlcore.Schema.mem (Table.schema tbl) column) then
    invalid_arg
      (Printf.sprintf "Database.create_index: no column %s in %s" column table);
  Hashtbl.replace t.indexes (key name) (Table.name tbl, column)

let drop_index t name =
  match Hashtbl.find_opt t.indexes (key name) with
  | Some entry ->
      Hashtbl.remove t.indexes (key name);
      entry
  | None -> raise (No_such_index name)

let restore_index t ~name ~table ~column =
  Hashtbl.replace t.indexes (key name) (table, column)
