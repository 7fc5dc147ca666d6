(** Parser for DOL program text (see {!Dol_pp} for the concrete syntax,
    which follows the paper's §4.3 listing). Text is lexed by the one
    lexer, {!Sqlfront.Lexer}: the SQL script a TASK, COMP or MOVE carries
    is one [{ ... }] block token, copied verbatim (braces nest; braces
    inside a quoted literal do not count). The program is parsed through
    {!Sqlfront.Tstream}. *)

exception Error of string * int * int
(** The one syntax error, {!Sqlcore.Scan.Error}: lexical or grammar error
    with 1-based line and column. *)

val parse : string -> Dol_ast.program
(** Parses a full [DOLBEGIN ... DOLEND] program. *)
