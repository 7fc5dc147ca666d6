(** Lexer for the SQL subset.

    Identifiers are [[A-Za-z_][A-Za-z0-9_]*]. Numbers are integer or
    decimal, with an optional exponent ([1e+15], [2.5E-3]). Strings use single quotes with [''] escaping. Comments are
    [--] to end of line and [/* ... */]. *)

exception Error of string * int * int
(** Lexical error with 1-based line and column. *)

val number : Sqlcore.Scan.t -> Token.t
(** Scan a number whose first digit is the next character: an [Int], or a
    [Float] when it has a fraction or an exponent. Shared with the MSQL
    lexer. *)

val tokenize : string -> Token.located list
(** The resulting list always ends with an [Eof] token. *)
