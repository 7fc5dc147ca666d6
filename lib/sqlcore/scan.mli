(** Character-level scanning toolkit under the one lexer,
    [Sqlfront.Lexer], which SQL, MSQL and DOL share.

    A scanner is a mutable cursor over an input string that tracks line and
    column for error reporting. *)

type t

exception Error of string * int * int
(** [Error (message, line, column)] — the one syntax error, with 1-based
    position. The lexer, the token stream and the SQL, MSQL and DOL
    parsers all raise it (each rebinds it as its own [Error]). *)

val create : string -> t
val eof : t -> bool
val peek : t -> char option
val peek_at : t -> int -> char option
(** [peek_at t k] is the character [k] places after the next one
    ([peek_at t 0] = [peek t]), if any. *)

val peek2 : t -> char option
(** Character after the next one, if any. *)

val advance : t -> unit
val next : t -> char
(** Consume and return the next character; raises {!Error} at end of
    input. *)

val line : t -> int
val column : t -> int

val error : t -> string -> 'a
(** Raise {!Error} at the current position. *)

val take_while : t -> (char -> bool) -> string

val skip_ws_and_comments : t -> unit
(** Skips blanks and comments: [--] to end of line and [/* ... */]. *)

val quoted_string : t -> string
(** Reads a ['...'] literal whose opening quote is the next character;
    embedded quotes are doubled (['']). *)

val is_digit : char -> bool
val is_ident_start : char -> bool
val is_ident_char : char -> bool
