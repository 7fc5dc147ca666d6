(** Recursive-descent parser for the SQL subset.

    Reserved words are contextual: the parser stops reading clause lists at
    the keywords that may follow them, so common words can still be used as
    identifiers where unambiguous. Text is lexed by {!Lexer} with SQL's
    identifier rule and parsed through {!Tstream}. *)

exception Error of string * int * int
(** Parse (or lexical) error with 1-based line and column: the one syntax
    error, {!Sqlcore.Scan.Error}, shared with the MSQL and DOL parsers. *)

val parse_stmt : string -> Ast.stmt
(** Parse a single statement; an optional trailing [;] is allowed. *)

val parse_script : string -> Ast.stmt list
(** Parse a [;]-separated statement list; empty statements are skipped. *)

val parse_select : string -> Ast.select
(** Parse a bare SELECT. *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression (used by tests and by the MSQL
    translator when rewriting predicates). *)

(** Token-level entry points, used by the MSQL parser, which lexes with
    its own identifier rule (wildcards, optional-column markers) and
    embeds these grammar productions in its own statements. They raise
    {!Error}. *)

val stmt_of_tokens : Tstream.t -> Ast.stmt
val select_of_tokens : Tstream.t -> Ast.select
