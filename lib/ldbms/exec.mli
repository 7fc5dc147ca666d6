(** Statement execution against one local database.

    This module is the query processor of an LDBMS; transaction control
    and capability enforcement live in {!Session}. DML callers must pass
    the enclosing transaction: reads go through its snapshot (plus its own
    staged writes) and writes stage intents resolved at commit. A write
    that loses the first-committer-wins race raises {!Txn.Conflict}. *)

exception Error of string
(** Semantic error: unknown table/column, ambiguity, type error. *)

val set_join_planner : bool -> unit
(** Enable/disable the physical join planner (hash joins and index
    nested-loop over equi-join conjuncts). On by default; disabling falls
    back to the Cartesian-product-then-filter pipeline. The result rows are
    identical either way — the toggle exists for differential testing and
    benchmarking. *)

val join_planner_enabled : unit -> bool

val set_dict_epoch : ?ident:int -> int -> unit
(** Declare the calling dictionary's identity and epoch for subsequent
    local statements: both are folded into the compiled-predicate cache
    key (the multidatabase layer passes its {!Msql.Gdd.id} and the sum of
    its GDD/AD versions before executing local statements; [ident]
    defaults to [0] for bare LDBMS sessions). A changed epoch therefore
    invalidates by construction — old-generation keys stop matching and
    are pruned — without clearing entries that belong to {e other}
    dictionaries, so sessions with different dictionary versions
    interleaving statements no longer thrash the whole cache, and equal
    epoch numbers from different dictionaries cannot collide. *)

val compiled_cache_stats : unit -> int * int * int
(** [(hits, misses, live_entries)] of the compiled-predicate/projection
    cache. Hits are per statement, not per row. *)

val run_select :
  ?txn:Txn.t ->
  Database.t ->
  ?outer:Eval.env ->
  Sqlfront.Ast.select ->
  Sqlcore.Relation.t
(** Without [txn], reads the latest committed versions; with it, the
    transaction's snapshot view including its staged writes. *)

val run_insert :
  Database.t ->
  txn:Txn.t ->
  table:string ->
  columns:string list option ->
  source:Sqlfront.Ast.insert_source ->
  int
(** Number of rows inserted. *)

val run_update :
  Database.t ->
  txn:Txn.t ->
  table:string ->
  assignments:(string * Sqlfront.Ast.expr) list ->
  where:Sqlfront.Ast.expr option ->
  int
(** Number of rows updated. *)

val run_delete :
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

val infer_expr_ty : Sqlcore.Schema.t -> Sqlfront.Ast.expr -> Sqlcore.Ty.t
(** Static result-type approximation used to build output schemas. *)
