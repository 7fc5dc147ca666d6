(** Commitment capabilities of a local DBMS.

    The paper's heterogeneity model (§3.1, §3.2.2): LDBMSs differ in

    - whether they serve a single default database or many
      ([CONNECT]/[NOCONNECT] in the INCORPORATE statement);
    - whether they only autocommit or expose a visible prepared-to-commit
      state ([COMMITMODE COMMIT]/[NOCOMMIT]);
    - what each DDL statement does to the enclosing transaction: e.g. one
      of the paper's systems (Ingres-like) lets DDL be rolled back while
      the other (Oracle-like) commits DDL together with all previously
      issued uncommitted statements. *)

type connect_mode = Connect | No_connect

type commit_mode =
  | Autocommit  (** every statement commits on its own; no 2PC interface *)
  | Two_phase  (** visible prepared-to-commit state *)

type ddl_behavior =
  | Ddl_rollbackable  (** DDL joins the transaction and can be rolled back *)
  | Ddl_autocommits
      (** DDL first commits the current transaction, then executes and
          commits itself *)

type t = {
  connect_mode : connect_mode;
  commit_mode : commit_mode;
  ddl_behavior : ddl_behavior;
  create_commits : bool;  (** CREATE forces a commit (paper's CREATE COMMIT) *)
  insert_commits : bool;  (** INSERT forces a commit *)
  drop_commits : bool;  (** DROP forces a commit *)
  engine_name : string;  (** profile label, e.g. "oracle-like" *)
}

val supports_2pc : t -> bool

val make :
  ?connect_mode:connect_mode ->
  ?commit_mode:commit_mode ->
  ?ddl_behavior:ddl_behavior ->
  ?create_commits:bool ->
  ?insert_commits:bool ->
  ?drop_commits:bool ->
  string ->
  t
(** Defaults model a well-behaved 2PC engine: [Connect], [Two_phase],
    [Ddl_rollbackable], and no per-statement forced commits. *)

val ingres_like : t
(** 2PC with rollbackable DDL. *)

val oracle_like : t
(** 2PC but DDL autocommits, committing prior uncommitted work (§3.2.2). *)

val sybase_like : t
(** Autocommit-only engine: no prepared state; the vital-set machinery must
    fall back to compensation (§3.3). *)

val pp : Format.formatter -> t -> unit
