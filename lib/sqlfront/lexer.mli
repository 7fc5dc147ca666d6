(** The one lexer: SQL, MSQL and DOL text all tokenize here.

    Identifiers are [[A-Za-z_][A-Za-z0-9_]*] unless the caller passes its
    own rule. Numbers are integer or decimal, with an optional exponent
    ([1e+15], [2.5E-3]). Strings use single quotes with [''] escaping.
    Comments are [--] to end of line and [/* ... */]. A [{ ... }] block
    (braces nest; a quoted literal inside is copied whole) is one
    {!Token.Block}: the SQL script a DOL statement carries. *)

exception Error of string * int * int
(** Lexical error with 1-based line and column: the one syntax error,
    {!Sqlcore.Scan.Error}, which the parsers raise too. *)

val tokenize :
  ?ident:(char -> bool) * (Sqlcore.Scan.t -> string) ->
  string ->
  Token.located list
(** [tokenize ?ident text] lexes [text]; the list always ends with an
    [Eof] token. [ident] is the identifier rule: a character that starts
    an identifier, and a scanner that reads one from there. It defaults to
    SQL's; the MSQL parser passes its multiple-identifier rule. *)
