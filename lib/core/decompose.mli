(** Decomposition of a global (cross-database) SELECT (§4.3, phase 3).

    Following the paper, the query is transformed "into a set of the
    largest possible local subqueries, one for each involved LDBS", plus a
    modified global query Q' evaluated by one LDBS designated as the
    coordinator:

    - table references are grouped by database; the coordinator and the
      semijoin reduction of each shipped subquery are picked by one
      latency cost model: every candidate plan is priced in virtual
      milliseconds with {!Netsim.Site}'s per-message costs, from the
      IMPORT-time cardinalities and the column widths, and the cheapest
      wins (ties: fewer bytes, then the canonical database name), so the
      plan does not depend on FROM order;
    - for every other database, a local subquery projects exactly the
      columns the global query uses from that database's tables and
      applies every conjunct of the WHERE clause that is local to it;
    - its result is shipped to the coordinator as a temporary table;
    - Q' joins the coordinator's own tables with the temporaries and
      applies the remaining (cross-database) conjuncts.

    Restrictions (documented deviations): a global query must not contain
    nested subqueries, and its table references must have unique labels. *)

exception Error of string

type semijoin = {
  sj_col : string;
      (** join column to restrict, qualified in the shipped subquery's
          scope (e.g. [p.pid]) *)
  sj_probe : Sqlfront.Ast.select;
      (** [SELECT DISTINCT key FROM coord_table WHERE local_conjuncts],
          to be evaluated at the coordinator just before the MOVE *)
}

type sj_gate =
  | Sj_applied of { key_bytes : int; est_bytes : int }
      (** the cheapest plan reduces this MOVE: fetching [key_bytes] of
          coordinator keys first is priced faster than shipping all
          [est_bytes] (the reduction is priced as halving them) *)
  | Sj_declined of { key_bytes : int; est_bytes : int }
      (** an equi-join edge exists but the cheapest plan ships unreduced *)
  | Sj_no_stats  (** a cardinality the reduction is priced with was never
                     imported *)
  | Sj_no_edge
      (** no cross-database equi-join conjunct links this subquery to a
          coordinator table *)
  | Sj_off  (** semijoin reduction disabled for the session *)

type shipped = {
  sdb : string;  (** source database *)
  subquery : Sqlfront.Ast.select;  (** largest local subquery *)
  tmp_table : string;  (** temporary table name at the coordinator *)
  reduce : semijoin option;
      (** SDD-1-style semijoin reduction: restrict the shipped subquery to
          the coordinator's distinct join-key values before moving it.
          Present only when a cross-database equi-join conjunct links this
          subquery to a coordinator table and the cheapest priced plan
          reduces it. *)
  sj_gate : sj_gate;
      (** why [reduce] is or is not present, with the size estimates —
          rendered by [EXPLAIN MULTIPLE] *)
}

type alternative = {
  alt_coordinator : string;
  alt_reduced : (string * bool) list;
      (** each shipped database, by canonical name, and whether its MOVE
          is semijoin-reduced *)
  alt_ms : float;
      (** estimated virtual ms: the slowest MOVE, the coordinator's two
          round trips and, for a transfer coordinated away from its
          target, the MOVE of the result *)
  alt_bytes : int;  (** estimated bytes of the same messages *)
}
(** One priced candidate plan. *)

type plan = {
  coordinator : string;  (** database that evaluates Q' *)
  result_db : string;
      (** database the result is labelled with: the first in FROM order,
          whatever the coordinator *)
  shipped : shipped list;
  modified : Sqlfront.Ast.select;  (** Q', phrased against coordinator tables
                                       and the temporaries *)
  cleanup : string list;  (** temporary tables to drop afterwards *)
  alternatives : alternative list;
      (** every candidate plan, cheapest first; the head is this plan *)
}

val decompose_with :
  ?site:(string -> Netsim.Site.t) ->
  ?target:string ->
  semijoin:bool ->
  gselect:Sqlfront.Ast.select ->
  grefs:Expand.global_ref list ->
  unit ->
  plan
(** [site db] is the network cost model of [db]'s site (default:
    {!Netsim.Site.make}'s defaults for every database). [target] is an
    [INSERT ... SELECT]'s target database: a plan coordinated elsewhere
    pays one more MOVE. [semijoin] lets the pricing consider the semijoin
    reduction of shipped subqueries; with it off every MOVE ships the full
    filtered subrelation. *)

val decompose :
  semijoin:bool ->
  gselect:Sqlfront.Ast.select ->
  grefs:Expand.global_ref list ->
  plan
(** {!decompose_with} with default site costs and no target. *)

val pp_plan : Format.formatter -> plan -> unit
