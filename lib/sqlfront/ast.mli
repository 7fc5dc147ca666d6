(** Abstract syntax of the SQL subset executed by the local database
    engines.

    This is the language a LAM ships to an LDBMS: single-database SQL with
    scalar/IN/EXISTS subqueries — rich enough for every local subquery the
    MSQL decomposer can generate, including the paper's
    [WHERE snu = (SELECT MIN(snu) FROM ...)] reservations. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Concat  (** string concatenation [||] *)
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Lit of Sqlcore.Value.t
  | Col of { qualifier : string option; name : string }
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Is_null of { arg : expr; negated : bool }
  | Like of { arg : expr; pattern : string; negated : bool }
  | In_list of { arg : expr; items : expr list; negated : bool }
  | Between of { arg : expr; lo : expr; hi : expr; negated : bool }
  | Agg of { fn : agg_fn; distinct : bool; arg : expr option }
  | Scalar_subquery of select
  | In_subquery of { arg : expr; query : select; negated : bool }
  | Exists of select

and projection =
  | Star
  | Qualified_star of string
  | Proj_expr of expr * string option  (** expression with optional alias *)

and table_ref = { table : string; alias : string option }

and order_item = { sort_expr : expr; descending : bool }

and select = {
  distinct : bool;
  projections : projection list;
  from : table_ref list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
}

type column_def = {
  col_name : string;
  col_ty : Sqlcore.Ty.t;
  col_width : int option;
  col_not_null : bool;
  col_unique : bool;
}

type insert_source = Values of expr list list | Query of select

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list option; source : insert_source }
  | Update of { table : string; assignments : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Create_table of { table : string; columns : column_def list }
  | Drop_table of { table : string }
  | Create_view of { view : string; view_query : select }
  | Drop_view of { view : string }
  | Create_index of { index : string; idx_table : string; idx_column : string }
  | Drop_index of { index : string }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Prepare_txn
      (** Enter the prepared-to-commit state (first phase of 2PC); only
          meaningful on engines whose capabilities advertise 2PC. *)

val select :
  ?distinct:bool ->
  ?where:expr ->
  ?group_by:expr list ->
  ?having:expr ->
  ?order_by:order_item list ->
  projections:projection list ->
  from:table_ref list ->
  unit ->
  select

val col : ?qualifier:string -> string -> expr
val lit_int : int -> expr

val conjuncts : expr -> expr list
(** The top-level [AND] operands of a predicate, left to right. *)

val conjoin : expr list -> expr option
(** [AND] of the list, folded to the left ([None] when empty):
    [conjoin (conjuncts e)] is [e] up to [AND] association. *)

val is_aggregate_query : select -> bool
(** True when a GROUP BY or HAVING clause is present, or a projection
    mentions an aggregate. A HAVING without GROUP BY makes the whole
    input one group, as in SQL. *)

val tables_of_stmt : stmt -> string list

val equal_stmt : stmt -> stmt -> bool
(** Structural equality (literal floats compared with [Float.equal]). *)
