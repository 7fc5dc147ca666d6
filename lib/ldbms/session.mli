(** A connection to a local DBMS, enforcing its commitment capabilities.

    This is what a LAM drives. The session interprets transaction-control
    statements according to the engine's {!Capabilities.t}: autocommit-only
    engines commit every statement as it executes and reject PREPARE;
    2PC engines accumulate work in a transaction with a visible
    prepared-to-commit state. DDL follows the engine's
    {!Capabilities.ddl_behavior} — on [Ddl_autocommits] engines a CREATE or
    DROP silently commits all previously issued uncommitted statements
    first, reproducing the paper's Oracle/Ingres discrepancy (§3.2.2). *)

type result =
  | Rows of Sqlcore.Relation.t
  | Affected of int
  | Done

(** Execution observations for a transport layer to subscribe to (the
    session cannot depend on multidatabase trace types): a snapshot
    acquisition with its timestamp, or a lost write-write race on a
    table. *)
type obs =
  | Obs_snapshot of int
  | Obs_conflict of { table : string; op : string }

(** Why a statement or transaction verb failed. [Conflict] is a lost
    first-committer-wins race ({!Txn.Conflict}) and [Injected] a failure
    fired by the session's {!Failure_injector}; in both the session has
    rolled the transaction back. [Failed] covers everything else: parse
    and semantic errors and capability violations. Retry layers classify
    on the constructor: a [Conflict] or a [Transient] injection may
    succeed when retried, anything else will not. *)
type error =
  | Conflict of { table : string; op : string }
  | Injected of { kind : Failure_injector.kind; point : Failure_injector.point }
  | Failed of string

val error_to_string : error -> string
(** The message text. Transient errors read ["transient ..."]; an
    injection [At_connect] (raised by the transport when it dials) reads
    ["connection refused by service"]. *)

type t

(** [connect ?injector db caps] opens a session. [injector] defaults to a
    fresh, never-firing injector; passing a shared one lets a test or
    benchmark harness inject failures into sessions it did not create
    itself (e.g. those opened by LAMs). *)
val connect : ?injector:Failure_injector.t -> Database.t -> Capabilities.t -> t
val database : t -> Database.t
val capabilities : t -> Capabilities.t
val injector : t -> Failure_injector.t

val set_observer : t -> (obs -> unit) option -> unit
(** Install (or clear) the MVCC observation sink. At most one observer is
    active; a reconnecting transport reinstalls its own. *)

val txn_state : t -> Txn.state option
(** State of the current transaction, if one is open. *)

val in_transaction : t -> bool

val land_table :
  t -> name:string -> Sqlcore.Schema.t -> Sqlcore.Row.t list -> unit
(** Materialize a relation this connection received (a MOVE's landing
    table), replacing any landing table of that name. It never enters
    the catalog, so it moves neither {!Database.change_stamp} nor the
    timestamp oracle. Only this session's reads see it, where it shadows
    a catalog table of the same name. DROP TABLE removes it under the
    usual transaction discipline, with no undo; {!close} drops all. *)

val exec : t -> Sqlfront.Ast.stmt -> (result, error) Stdlib.result
(** Execute one statement. Any open transaction is rolled back on error,
    as a local DBMS would abort the victim. On a [Ddl_autocommits] engine
    a DDL statement first commits the open transaction; if that commit
    fails, its error is returned and the DDL does not run. *)

val exec_sql : t -> string -> (result, error) Stdlib.result
(** Parse one statement through the database's statement cache
    ({!Database.parse_stmt}) and execute it; parse errors are reported as
    [Failed]. *)

val exec_script : t -> string -> (result list, error) Stdlib.result
(** Execute a [;]-separated script, parsed through the database's
    statement cache ({!Database.parse_script}), stopping at the first
    error. *)

val commit : t -> (unit, error) Stdlib.result
val rollback : t -> (unit, error) Stdlib.result
val prepare : t -> (unit, error) Stdlib.result

val close : t -> unit
(** End the session, as the LDBMS does when its client hangs up or the
    connection breaks: the landing tables go, an {e active} transaction
    is rolled back, a {e prepared} one survives to await its
    coordinator's verdict. The session stays usable: a pool closes a
    session it parks. *)

val result_to_string : result -> string
