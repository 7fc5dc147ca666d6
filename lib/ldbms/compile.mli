(** Once-per-statement compilation of expressions: the executor's one
    evaluator.

    Every expression the executor evaluates — WHERE, projections, ORDER
    BY, GROUP BY keys, HAVING, INSERT VALUES, UPDATE SET — compiles here
    to a closure over one row. Closures are assembled from {!Eval}'s
    primitives, which fix NULL propagation, Kleene logic, exact Int/Float
    comparison and the error messages. The one node built differently is
    an IN list of literals of one comparable class: it compiles to a
    hashed membership test (O(1) per row instead of O(K)) that must match
    {!Eval.in_values} exactly, which a differential fuzz against a
    reference interpreter pins. *)

type env = {
  schema : Sqlcore.Schema.t;
  row : Sqlcore.Row.t;
  outer : env option;  (** the row enclosing this one, if any *)
}
(** A row in scope: what a correlated reference reads. *)

type ctx = {
  outer : env option;
      (** the enclosing rows; a name absent from the compiled expression's
          own schema resolves here, innermost first *)
  subquery : env -> Sqlfront.Ast.select -> Sqlcore.Relation.t;
      (** runs a nested SELECT with the current row as its enclosing row *)
  group : Sqlcore.Row.t list ref option;
      (** inside an aggregate select, the group an [Agg] node folds over,
          set by the caller before each evaluation; [None] elsewhere *)
}

val compile :
  ctx -> Sqlcore.Schema.t -> Sqlfront.Ast.expr -> Sqlcore.Row.t -> Sqlcore.Value.t
(** [compile ctx schema e] resolves every name in [e] once — against
    [schema], then [ctx.outer] — and returns the closure evaluating [e]
    over a row of [schema]. It never fails: a name that resolves nowhere,
    or to two columns of one scope, raises {!Eval.Unknown_column} or
    {!Eval.Ambiguous_column} when the closure runs; so does an [Agg] node
    outside an aggregate select, with {!Eval.Type_error}. An [Agg]
    argument is compiled against [schema] alone, with no enclosing rows
    and no group. *)
