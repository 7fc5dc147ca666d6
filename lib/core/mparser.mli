(** Parser for extended MSQL.

    Concrete syntax follows the paper:

    {v
    USE continental VITAL delta united VITAL
    UPDATE flight% SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'
    COMP continental
      UPDATE flights SET rate = rate / 1.1
      WHERE source = 'Houston' AND destination = 'San Antonio'
    v}

    Aliases in USE require the parenthesized form of the paper's grammar:
    [USE (continental cont) VITAL (delta d)]. Multitransactions are
    bracketed by [BEGIN MULTITRANSACTION] / [END MULTITRANSACTION] with a
    [COMMIT] statement listing acceptable states, one conjunction
    ([db AND db ...]) per state.

    Text is lexed by the one lexer, {!Sqlfront.Lexer}, with MSQL's
    identifier rule for {e multiple identifiers}: the [%] wildcard may
    appear anywhere in an identifier ([rate%], [%code], [fl%8]), and the
    [~] optional-column marker may prefix one ([~rate]). Such tokens are
    ordinary [Ident]s whose payload keeps the markers; expansion
    interprets them. Consequently MSQL bodies have no [%] modulo
    operator. *)

exception Error of string * int * int
(** The one syntax error, {!Sqlcore.Scan.Error}: lexical or grammar error
    with 1-based line and column. *)

val parse_toplevel : string -> Ast.toplevel
(** Parse exactly one top-level MSQL statement. *)

val parse_script : string -> Ast.toplevel list
(** Parse a sequence of top-level statements (each optionally terminated
    by [;]). *)

val parse_query : string -> Ast.query
(** Parse a single multiple query (USE ... LET ... body ... COMP ...). *)
