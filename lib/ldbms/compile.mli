(** Once-per-statement compilation of expressions.

    Compiled closures are assembled from {!Eval}'s exported primitives, so
    a compiled evaluation agrees with the interpreted one — NULL
    propagation, Kleene logic, exact Int/Float comparison and error
    messages included. The exception is an IN list of constants of one
    comparable class, which compiles to a hashed membership test (O(1)
    per row instead of O(K)) that must match {!Eval.in_values} exactly;
    that agreement is pinned by a differential fuzz rather than by
    construction. Anything outside the compiler's coverage compiles to
    [None] and the caller falls back to the interpreter. *)

val compile_row :
  Sqlcore.Schema.t -> Sqlfront.Ast.expr -> (Sqlcore.Row.t -> Sqlcore.Value.t) option
(** Compile an expression to a closure over one row, with all column
    references resolved to indices up front. [None] when the expression
    contains a subquery, an aggregate, or a column that does not resolve
    to exactly one index in [schema] (outer references and ambiguities
    keep the interpreter's error behaviour). The closure may raise
    {!Eval.Type_error} exactly where the interpreter would. *)
