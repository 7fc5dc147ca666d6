(** Statement execution against one local database.

    This module is the query processor of an LDBMS; transaction control
    and capability enforcement live in {!Session}. DML callers must pass
    the enclosing transaction: reads go through its snapshot (plus its own
    staged writes) and writes stage intents resolved at commit. A write
    that loses the first-committer-wins race raises {!Txn.Conflict}.

    Every expression of a statement — WHERE, projections, ORDER BY, GROUP
    BY keys, HAVING, INSERT VALUES, UPDATE SET — compiles once per
    statement ({!Compile.compile}), with no other evaluator behind it; the
    module keeps no state between statements; the lookup maps and value
    classes it reads are memos of a table version ({!Table.lookup_eq},
    {!Table.value_classes}). A single-table SELECT scans its table. A
    multi-table FROM with a WHERE joins through the physical join
    planner, and falls back to the filtered Cartesian product when no
    equi-join conjunct qualifies. Each join step is a hash join, or an
    index nested loop into a larger base table read at its current
    version whose lookup map pays ({!Table.probe_pays}): that is the only
    read of a lookup map, and no statement reads a declared index. A
    leaf's local conjuncts filter it before the join, unless they provably
    cannot raise on its table version, in which case they run on the
    matches only: a conjunct that can raise still fails the statement on
    a row that never joins. *)

exception Error of string
(** Semantic error: unknown table/column, ambiguity, type error. *)

val compiled_cache_stats : unit -> int * int * int
(** Always [(0, 0, 0)]: predicates compile once per statement and nothing
    is cached. No effect; kept only because [msqlbench/] reads it. *)

val select :
  tables:(string -> Table.t option) ->
  ?txn:Txn.t -> Database.t -> Sqlfront.Ast.select -> Sqlcore.Relation.t
(** Without [txn], reads the latest committed versions; with it, the
    transaction's snapshot view including its staged writes. [tables]
    resolves a FROM leaf's name, here and in the DML statements below (a
    {!Session} tries its landing tables first); views and DML targets
    are the catalog's. *)

val run_select : ?txn:Txn.t -> Database.t -> Sqlfront.Ast.select -> Sqlcore.Relation.t
(** {!select} over the catalog's tables. *)

val run_insert :
  tables:(string -> Table.t option) ->
  Database.t ->
  txn:Txn.t ->
  table:string ->
  columns:string list option ->
  source:Sqlfront.Ast.insert_source ->
  int
(** Number of rows inserted. *)

val run_update :
  tables:(string -> Table.t option) ->
  Database.t ->
  txn:Txn.t ->
  table:string ->
  assignments:(string * Sqlfront.Ast.expr) list ->
  where:Sqlfront.Ast.expr option ->
  int
(** Number of rows updated. *)

val run_delete :
  tables:(string -> Table.t option) ->
  Database.t -> txn:Txn.t -> table:string -> where:Sqlfront.Ast.expr option -> int

val run_create_table :
  Database.t -> txn:Txn.t -> table:string -> columns:Sqlfront.Ast.column_def list -> unit

val run_drop_table : Database.t -> txn:Txn.t -> table:string -> unit

val run_create_view :
  Database.t -> txn:Txn.t -> view:string -> query:Sqlfront.Ast.select -> unit
(** The definition is validated by evaluating it once. *)

val run_drop_view : Database.t -> txn:Txn.t -> view:string -> unit

val view_schema : Database.t -> Sqlfront.Ast.select -> Sqlcore.Schema.t
(** Result schema of a view definition (evaluates the view). *)

val run_create_index :
  Database.t -> txn:Txn.t -> index:string -> table:string -> column:string -> unit

val run_drop_index : Database.t -> txn:Txn.t -> index:string -> unit

