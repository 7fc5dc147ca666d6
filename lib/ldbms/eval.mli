(** Expression evaluation with SQL three-valued logic.

    Booleans are represented as [Value.Bool]; the unknown truth value is
    [Value.Null]. Comparisons and arithmetic involving NULL yield NULL;
    AND/OR/NOT follow Kleene logic; WHERE keeps a row only when its
    predicate evaluates to [Bool true] (see {!truthy}). *)

exception Type_error of string
exception Unknown_column of string
exception Ambiguous_column of string

type env = {
  schema : Sqlcore.Schema.t;
  row : Sqlcore.Row.t;
  outer : env option;  (** enclosing row for correlated subqueries *)
}

val env : ?outer:env -> Sqlcore.Schema.t -> Sqlcore.Row.t -> env

type ctx = {
  subquery : env option -> Sqlfront.Ast.select -> Sqlcore.Relation.t;
      (** evaluates a nested SELECT, given the enclosing environment *)
  agg : (Sqlfront.Ast.expr -> Sqlcore.Value.t) option;
      (** when grouping, the executor supplies the values of [Agg] nodes;
          [None] outside aggregate contexts (an [Agg] node is then a type
          error) *)
}

val lookup : env -> ?qualifier:string -> string -> Sqlcore.Value.t
(** Resolve a column reference in [env], falling back to outer
    environments; raises {!Unknown_column} or {!Ambiguous_column}. *)

val eval : ctx -> env -> Sqlfront.Ast.expr -> Sqlcore.Value.t

val truthy : Sqlcore.Value.t -> bool
(** [true] exactly for [Bool true]. *)

val value_compare_sql : Sqlcore.Value.t -> Sqlcore.Value.t -> int option
(** SQL comparison: [None] when either side is NULL; raises {!Type_error}
    on incomparable classes (e.g. string vs int). *)

(** {1 Primitive operations}

    The building blocks of {!eval}, exported so {!Compile} can assemble
    per-statement closures out of the very same primitives — compiled and
    interpreted evaluation then agree by construction, NULL propagation,
    Kleene logic, and error messages included. {!in_values} is also the
    reference the compiled hashed IN-list test must match, and what it
    defers to for a needle of another class. *)

val logic_and : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_or : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_not : Sqlcore.Value.t -> Sqlcore.Value.t

val comparison :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Comparison operators only; anything else is a programming error. *)

val arith :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Arithmetic operators only. *)

val concat : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t

val negate_tv : bool -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Apply three-valued NOT when the flag is set ([negated] forms). *)

val in_values : Sqlcore.Value.t -> Sqlcore.Value.t list -> Sqlcore.Value.t
(** SQL IN: TRUE on an equal member, else UNKNOWN if any comparison
    involved NULL, else FALSE. *)
