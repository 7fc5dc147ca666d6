(** Tokens of the one lexer ({!Lexer}) that SQL, MSQL and DOL share.
    Keywords are not distinguished lexically: the parsers match [Ident]
    payloads case-insensitively, which lets keyword-like identifiers (e.g.
    a column named [day]) appear where the grammar allows them. MSQL's
    multiple identifiers ([rate%], [~rate]) are [Ident]s too. *)

type t =
  | Ident of string
  | Int of int
  | Float of float
  | Str of string  (** ['...'] literal, quotes stripped *)
  | Sym of string  (** punctuation / operator, e.g. ["("], ["<="], ["||"] *)
  | Block of string
      (** contents of a [{ ... }] block, trimmed: the SQL script a DOL
          TASK, COMP or MOVE carries verbatim *)
  | Eof

type located = { tok : t; tline : int; tcol : int }

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val is_keyword : t -> string -> bool
(** [is_keyword tok kw] — [tok] is an identifier equal to [kw]
    case-insensitively. *)
