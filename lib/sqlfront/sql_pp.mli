(** Rendering of SQL ASTs back to concrete SQL text.

    The MSQL decomposer builds local subqueries as ASTs and ships them to
    the LAMs as text, so this printer must produce output {!Parser} accepts
    (round-tripping is property-tested). *)

val expr_to_string : Ast.expr -> string
val select_to_string : Ast.select -> string
val stmt_to_string : Ast.stmt -> string
