module Names = Sqlcore.Names

type t = {
  schemas : (string, (string, string * Sqlcore.Schema.t) Hashtbl.t) Hashtbl.t;
      (* db key -> (table key -> (display name, schema)) *)
  cards : (string * string, int) Hashtbl.t;
      (* (db key, table key) -> row count observed at IMPORT time *)
  id : int;
      (* process-unique dictionary identity: the plan-cache key folds it
         in, so equal version numbers from different dictionaries cannot
         collide *)
  mutable version : int;
      (* bumped on every mutation: the plan-cache invalidation epoch *)
}

let next_id =
  let c = ref 0 in
  fun () ->
    incr c;
    !c

let create () =
  {
    schemas = Hashtbl.create 16;
    cards = Hashtbl.create 16;
    id = next_id ();
    version = 0;
  }

let key = String.lowercase_ascii
let id t = t.id
let version t = t.version
let bump t = t.version <- t.version + 1

let db_tbl t db =
  match Hashtbl.find_opt t.schemas (key db) with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace t.schemas (key db) tbl;
      tbl

let import_table t ~db ~table schema =
  bump t;
  Hashtbl.replace (db_tbl t db) (key table) (table, schema)

let import_columns t ~db ~table schema columns =
  let picked =
    List.map
      (fun cname ->
        match
          List.find_opt
            (fun (c : Sqlcore.Schema.column) -> Names.equal c.Sqlcore.Schema.name cname)
            schema
        with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf "Gdd.import_columns: no column %s in %s" cname table))
      columns
  in
  import_table t ~db ~table picked

let import_database t ~db catalog =
  List.iter (fun (table, schema) -> import_table t ~db ~table schema) catalog

let set_cardinality t ~db ~table n =
  bump t;
  Hashtbl.replace t.cards (key db, key table) n

let cardinality t ~db ~table = Hashtbl.find_opt t.cards (key db, key table)

let forget_database t db =
  bump t;
  Hashtbl.remove t.schemas (key db);
  Hashtbl.iter
    (fun ((dbk, _) as k) _ -> if String.equal dbk (key db) then Hashtbl.remove t.cards k)
    (Hashtbl.copy t.cards)

let databases t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.schemas [] |> List.sort String.compare

let has_database t db = Hashtbl.mem t.schemas (key db)

let tables t ~db =
  match Hashtbl.find_opt t.schemas (key db) with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun _ (name, schema) acc -> (name, schema) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Names.compare a b)

let find_table t ~db name =
  match Hashtbl.find_opt t.schemas (key db) with
  | None -> None
  | Some tbl -> Option.map snd (Hashtbl.find_opt tbl (key name))

let match_tables t ~db ~pattern =
  tables t ~db
  |> List.filter (fun (name, _) -> Sqlcore.Like.identifier ~pattern name)

let match_columns schema ~pattern =
  List.filter_map
    (fun (c : Sqlcore.Schema.column) ->
      if Sqlcore.Like.identifier ~pattern c.Sqlcore.Schema.name then
        Some c.Sqlcore.Schema.name
      else None)
    schema
