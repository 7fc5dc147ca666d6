(** Local transactions under snapshot isolation with a visible
    prepared-to-commit state (the first phase of 2PC, §3.2.1).

    A transaction acquires a snapshot at begin; reads see the versions
    committed at or before it plus the transaction's own staged writes.
    DML stages whole-table intents installed atomically at commit under a
    single commit timestamp. Write-write conflicts are resolved first
    committer wins; a prepared transaction additionally reserves its
    written tables so it can never lose the race after promising. *)

type state = Active | Prepared | Committed | Aborted

exception Conflict of { table : string; op : string }
(** A write lost a first-committer-wins race ([op] is the operation that
    detected it: ["write"], ["prepare"], or ["commit"]). The transaction
    is still in its prior state; callers roll it back. The session
    reports it as [Session.Conflict], which retry layers treat as
    transient: a retry on a fresh snapshot may succeed. *)

type t

val begin_ : Database.t -> t
(** Acquire a snapshot and a fresh transaction id on the database. *)

val state : t -> state

val snapshot : t -> int
(** The begin snapshot timestamp. *)

val read : t -> Table.t -> [ `Current | `Frozen of Sqlcore.Row.t list ]
(** The transaction's view of a table: [`Current] when the table's latest
    committed version is the visible one (a join may then probe its
    lookup maps), [`Frozen rows] when the transaction must read
    its own staged intent or an older version from the chain. *)

val stage : t -> Table.t -> op:string -> Sqlcore.Row.t list -> unit
(** Stage the table's full prospective contents as this transaction's
    write intent, replacing any earlier intent for the same table. Raises
    {!Conflict} (first committer wins) if a newer version was committed
    after the snapshot or another transaction holds a prepare
    reservation. *)

val log_create : t -> Database.t -> string -> unit
(** Record that the transaction created the named table. *)

val log_drop : t -> Database.t -> Database.dropped -> unit
(** Record that the transaction dropped the given table; the undo puts
    it back with its indexes. *)

val log_create_view : t -> Database.t -> string -> unit
val log_drop_view : t -> Database.t -> string -> Sqlfront.Ast.select -> unit
val log_create_index : t -> Database.t -> string -> unit
val log_drop_index : t -> Database.t -> string -> table:string -> column:string -> unit

val prepare : t -> unit
(** Active -> Prepared: re-validate all intents and reserve their tables
    (first preparer wins). Raises {!Conflict} on a lost race, leaving the
    transaction Active; raises [Invalid_argument] from any other state. *)

val commit : t -> unit
(** Active or Prepared -> Committed; installs all intents as one new
    committed version per table under a single commit timestamp and
    releases the snapshot and reservations. From Active, re-validates
    first and raises {!Conflict} on a lost race (the transaction stays
    Active and must be rolled back); from Prepared it cannot fail. *)

val rollback : t -> unit
(** Active or Prepared -> Aborted; discards staged intents, undoes DDL in
    reverse order, and releases the snapshot and reservations. *)

val is_finished : t -> bool
