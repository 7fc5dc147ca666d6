type connect_mode = Connect | No_connect
type commit_mode = Autocommit | Two_phase
type ddl_behavior = Ddl_rollbackable | Ddl_autocommits

type t = {
  connect_mode : connect_mode;
  commit_mode : commit_mode;
  ddl_behavior : ddl_behavior;
  create_commits : bool;
  insert_commits : bool;
  drop_commits : bool;
  engine_name : string;
}

let supports_2pc t = t.commit_mode = Two_phase

let make ?(connect_mode = Connect) ?(commit_mode = Two_phase)
    ?(ddl_behavior = Ddl_rollbackable) ?(create_commits = false)
    ?(insert_commits = false) ?(drop_commits = false) engine_name =
  {
    connect_mode;
    commit_mode;
    ddl_behavior;
    create_commits;
    insert_commits;
    drop_commits;
    engine_name;
  }

let ingres_like = make ~ddl_behavior:Ddl_rollbackable "ingres-like"
let oracle_like = make ~ddl_behavior:Ddl_autocommits ~create_commits:true ~drop_commits:true "oracle-like"

let sybase_like =
  make ~commit_mode:Autocommit ~ddl_behavior:Ddl_autocommits ~create_commits:true
    ~insert_commits:true ~drop_commits:true "sybase-like"

let pp ppf t =
  Format.fprintf ppf "%s(%s,%s,%s)" t.engine_name
    (match t.connect_mode with Connect -> "connect" | No_connect -> "noconnect")
    (match t.commit_mode with Autocommit -> "autocommit" | Two_phase -> "2pc")
    (match t.ddl_behavior with
    | Ddl_rollbackable -> "ddl-rollback"
    | Ddl_autocommits -> "ddl-autocommit")
