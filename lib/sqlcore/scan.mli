(** Character-level scanning toolkit shared by the SQL, MSQL and DOL lexers.

    A scanner is a mutable cursor over an input string that tracks line and
    column for error reporting. *)

type t

exception Error of string * int * int
(** [Error (message, line, column)] — lexical error with 1-based position. *)

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

val skip_while : t -> (char -> bool) -> unit
val take_while : t -> (char -> bool) -> string

val skip_ws_and_comments : t -> unit
(** Skips blanks, SQL [-- line] comments and [{ ... }]-free C-style
    [(* *)]-free comments: supported forms are [--] to end of line and
    [/* ... */]. *)

val quoted_string : t -> string
(** Reads a ['...'] literal whose opening quote is the next character;
    embedded quotes are doubled (['']). *)

val is_digit : char -> bool
val is_alpha : char -> bool
val is_ident_start : char -> bool
val is_ident_char : char -> bool
