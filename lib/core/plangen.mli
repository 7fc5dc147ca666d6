(** DOL evaluation-plan generation (§4.3, phase 4): the MSQL→DOL
    translator.

    Every plan OPENs the involved services, runs the local subqueries as
    parallel tasks, then encodes the commit discipline demanded by the
    VITAL designators, COMP clauses and acceptable termination states as
    DOL conditionals — so the entire semantics of a multiple query or
    multitransaction is visible in one generated program, as in the
    paper's §4.3 listing.

    Return-code convention (DOLSTATUS): [0] success, [1] aborted. The
    finer outcome (which acceptable state was reached, which vital
    subqueries diverged) is recovered from the task statuses by
    {!Msession}. *)

exception Error of string
(** Plan-generation refusal, e.g. a VITAL database without 2PC and without
    a COMP clause (§3.3), or a database missing from the AD. *)

type binding = {
  task : string;  (** DOL task or MOVE name *)
  bdb : string;  (** database it runs against *)
  vital : Ast.vital;
  retrieval : bool;  (** the task's script ends in a SELECT *)
}

type plan = { program : Narada.Dol_ast.program; task_bindings : binding list }

val plan_replicated : Ad.t -> Ast.query -> Expand.elementary list -> plan
(** Plan for a multiple query expanded per database (retrieval or
    update). *)

val plan_global : Ad.t -> Ast.query -> Decompose.plan -> plan
(** Plan for a decomposed cross-database SELECT: parallel MOVEs of the
    local subqueries to the coordinator, the modified query Q' there, and
    cleanup of the temporaries. The result is labelled with the plan's
    [result_db], not with the coordinator. Each MOVE is bound, vital, to
    its source database, so an abort names the sources that did not
    ship. *)

val plan_transfer :
  Ad.t ->
  tdb:string ->
  tuse:Ast.use_item ->
  ttable:string ->
  tcolumns:string list option ->
  Decompose.plan ->
  plan
(** Plan for a cross-database INSERT ... SELECT (§2's data transfer): the
    shipped subqueries are MOVEd to the coordinator as for
    {!plan_global}. When the target is the coordinator the source query's
    result is inserted in place; otherwise it is MOVEd to the target,
    inserted there from the staging table [msql_xfer], and that copy is
    dropped. Every temporary is dropped. *)

val plan_mtx :
  Ad.t ->
  Ast.multitransaction ->
  (Ast.query * Expand.elementary list) list ->
  plan
(** Plan for a multitransaction: every subquery is held
    prepared-to-commit where the engine allows, then the acceptable
    termination states are tried in specification order (§3.4). *)

