(** Multiple-identifier substitution and disambiguation (§4.3, phases 1–2).

    A multiple query is turned into {e elementary} fully-qualified SQL
    statements, one set per pertinent database of the USE scope:

    - explicit semantic variables are replaced using the LET binding whose
      table exists in that database;
    - implicit semantic variables ([%] patterns) are matched against the
      GDD; a table pattern matching several tables of one database yields
      several elementary statements;
    - optional columns ([~col]) are dropped from the SELECT list where the
      database lacks them;
    - non-pertinent combinations (a referenced table or column absent from
      the database) are discarded — this is disambiguation.

    A body whose FROM clause uses database-qualified tables ([avis.cars])
    is a {e global} query: it is resolved against the scope as one
    statement joining tables of several databases, to be decomposed (see
    {!Decompose}) rather than replicated. *)

exception Error of string
(** Static error: ambiguous LET binding, ambiguous pattern in a predicate,
    [~] outside a SELECT list, unknown database in scope, pattern mixed
    with database-qualified tables, ... *)

type elementary = {
  edb : string;  (** database name *)
  use : Ast.use_item;  (** scope entry the statements belong to *)
  stmts : Sqlfront.Ast.stmt list;
      (** fully-qualified local statements; several when a table pattern
          matched several tables *)
}

type global_ref = {
  gdb : string;
  gtable : string;
  galias : string option;  (** alias as written in the query *)
  gschema : Sqlcore.Schema.t;
  gcard : int option;
      (** row count recorded in the GDD at IMPORT time, when known; feeds
          the decomposer's cost model *)
}

type expansion =
  | Replicated of elementary list
      (** one entry per pertinent scope database, in scope order *)
  | Global of { gselect : Sqlfront.Ast.select; grefs : global_ref list }
      (** cross-database SELECT; [gselect]'s FROM names are rewritten to
          bare table names, positionally matching [grefs] *)
  | Transfer of {
      tdb : string;  (** target database *)
      tuse : Ast.use_item;
      ttable : string;  (** target table (exists in the target's GDD) *)
      tcolumns : string list option;
      gselect : Sqlfront.Ast.select;  (** source query, as in [Global] *)
      grefs : global_ref list;
    }
      (** data transfer between databases (§2):
          [INSERT INTO db1.t SELECT ... FROM db2.s ...] *)

val expand : Gdd.t -> Ast.query -> expansion

val substitution_for :
  Gdd.t -> db:string -> Ast.let_def list -> (string * string) list
(** The explicit-semantic-variable substitution a database gets from the
    LET definitions: variable name → concrete name (canonical case).
    Raises {!Error} when two bindings of one LET both match the
    database, or a matched binding references a missing column. *)
