(** A local database: a named catalog of tables.

    This plays the role of one LDBS behind a LAM. Its Local Conceptual
    Schema — the table/column/type information the MSQL IMPORT statement
    reads — is exactly {!catalog}. *)

type t

exception No_such_table of string
exception Table_exists of string

val create : string -> t
val name : t -> string
val table_names : t -> string list

(** {2 Timestamps and snapshots}

    Each database owns a private, monotone timestamp oracle (site
    autonomy: timestamps from different LDBSs are never compared). A
    snapshot is the oracle's value at acquisition time — it sees exactly
    the versions committed at or before it. *)

val next_commit_ts : t -> int
(** Draw a fresh commit timestamp, strictly greater than every earlier
    one. Moves {!change_stamp}. *)

val change_stamp : t -> int
(** Moves on every commit that installs versions ({!next_commit_ts}, which
    {!load} draws too) and on table and view create, drop and restore: a
    cached query result is valid while the stamp is unchanged. *)

val next_txn_id : t -> int
(** Draw a fresh local transaction id (for write reservations). *)

val acquire_snapshot : t -> int
(** Register and return a snapshot at the current timestamp. Must be
    paired with {!release_snapshot} so old versions can be pruned. *)

val release_snapshot : t -> int -> unit
(** Drop one registration of the given snapshot. *)

val oldest_snapshot : t -> int
(** The oldest still-active snapshot, or [max_int] when none is active;
    version chains may prune anything invisible from this point on. *)

(** {2 Statement cache}

    The database's shared SQL area: each distinct text is parsed once,
    whichever session submits it. An entry holds syntax only — names are
    resolved and expressions compiled on every execution — so it never
    goes stale. Each table is emptied when it passes 128 entries. *)

val parse_script : t -> string -> Sqlfront.Ast.stmt list
(** {!Sqlfront.Parser.parse_script} through the cache. A text that does
    not parse raises {!Sqlfront.Parser.Error} every time and is never
    stored. *)

val parse_stmt : t -> string -> Sqlfront.Ast.stmt
(** {!Sqlfront.Parser.parse_stmt} through the cache, likewise. *)

val cached_statements : t -> int
(** Entries the cache holds, over both entry points. *)

val find_table : t -> string -> Table.t
(** Raises {!No_such_table}. Case-insensitive. *)

val find_table_opt : t -> string -> Table.t option

val create_table : t -> name:string -> Sqlcore.Schema.t -> Table.t
(** Raises {!Table_exists} if the name is taken. *)

type dropped
(** A dropped table together with its index entries. *)

val drop_table : t -> string -> dropped
(** Removes the table and every index declared on it, and returns both
    (for undo logs); raises {!No_such_table}. *)

val restore_table : t -> dropped -> unit
(** Puts a dropped table back with its indexes (undo of drop). *)

val catalog : t -> (string * Sqlcore.Schema.t) list
(** Table name and schema pairs, sorted by table name — the database's
    local conceptual schema. *)

val load : t -> name:string -> Sqlcore.Schema.t -> Sqlcore.Row.t list -> unit
(** Create a table and bulk-load rows; convenience for fixtures and
    local loads (a MOVE lands in the receiving session instead,
    {!Session.land_table}). Replaces any existing table with that name, as
    {!drop_table} would: the old table's index entries go with it. *)

(** {2 Views}

    A view is a named, stored SELECT, expanded when referenced in a FROM
    clause. Views share the table namespace. *)

exception View_exists of string
exception No_such_view of string

val create_view : t -> name:string -> Sqlfront.Ast.select -> unit
(** Raises {!Table_exists} or {!View_exists} when the name is taken. *)

val drop_view : t -> string -> Sqlfront.Ast.select
(** Removes and returns the definition (for undo logs); raises
    {!No_such_view}. *)

val restore_view : t -> name:string -> Sqlfront.Ast.select -> unit
val find_view_opt : t -> string -> Sqlfront.Ast.select option

(** {2 Indexes}

    A declared index is a catalog entry only: CREATE INDEX and DROP INDEX
    keep their DDL behaviour (name clashes, errors, rollback), but no
    query reads the entry, and a SELECT runs the same with or without it.
    Joins decide for themselves when to read a table's lookup map
    ({!Table.probe_pays}). Dropping a table drops its indexes. *)

exception Index_exists of string
exception No_such_index of string

val create_index : t -> name:string -> table:string -> column:string -> unit
(** Raises {!Index_exists}, {!No_such_table}, or [Invalid_argument] when
    the column does not exist. *)

val drop_index : t -> string -> string * string
(** Removes the named index and returns its (table, column); raises
    {!No_such_index}. *)

val restore_index : t -> name:string -> table:string -> column:string -> unit
