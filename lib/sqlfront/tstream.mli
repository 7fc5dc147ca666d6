(** Token-stream cursor with the look-ahead and expectation helpers the
    recursive-descent parsers (SQL, MSQL, DOL) are written against. All
    three parse {!Lexer} output through it. *)

type t

exception Error of string * int * int
(** Parse error with the position of the offending token: the one syntax
    error, {!Sqlcore.Scan.Error}, which the lexer raises too. *)

val create : Token.located list -> t

val run : Token.located list -> (t -> 'a) -> 'a
(** [run toks f] runs [f] over a stream of [toks] and fails with
    ["trailing input: ..."] unless it consumed all but [Eof]. *)

val peek : t -> Token.t
val peek2 : t -> Token.t
val advance : t -> unit
val next : t -> Token.t
val at_eof : t -> bool

val error : t -> string -> 'a
(** Raise {!Error} at the next token: ["msg (at tok)"]. *)

val at_kw : t -> string -> bool
(** Next token is the given keyword (case-insensitive identifier). *)

val at_kw2 : t -> string -> bool
(** Token after next is the given keyword. *)

val at_sym : t -> string -> bool

val accept_kw : t -> string -> bool
(** Consume the keyword if present; report whether it was. *)

val accept_sym : t -> string -> bool
val expect_kw : t -> string -> unit
val expect_sym : t -> string -> unit

val ident : t -> string
(** Consume and return an identifier; parse error otherwise. *)
