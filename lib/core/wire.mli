(** Newline-framed text protocol over {!Server}, transport-free.

    One logical client connection speaks lines; the daemon passes the
    bytes it reads off a socket to {!feed}, the tests call {!feed} or
    {!on_line} directly. Requests:

    - [HELLO] — admit a session; replies [HELLO <sid>], or
      [ERROR overloaded: ...] when the session table is full.
    - [STMT <sql>] — enqueue one statement ([<sql>] may carry escaped
      newlines). No immediate reply on success — the answer arrives
      later as a {!completion_line} ([RESULT <seq> <payload>] or
      [ERROR <seq> <msg>]), in per-session submission order. A shed
      statement replies [ERROR overloaded: ...] immediately.
    - [BYE] — retire the session; replies [BYE].

    Payloads are escaped ([\n] → [\\n], [\\] → [\\\\]) so every reply is
    exactly one line. *)

type conn

val create : Server.t -> conn
val sid : conn -> int option

val on_line : conn -> string -> string list
(** Handle one request line; returns the immediate reply lines (empty
    for an accepted [STMT], whose reply is asynchronous). *)

val max_line_bytes : int
(** The longest request line {!feed} accepts, newline excluded (1 MiB). *)

val feed : conn -> string -> string list
(** Frame a chunk of the byte stream: complete lines go to {!on_line}
    and their replies come back in order; the trailing partial line is
    kept in the [conn] until a later chunk completes it. A line that
    grows past {!max_line_bytes} is answered once with
    [ERROR protocol: line too long], and input is dropped up to its
    newline, so a client that never sends one costs bounded memory. *)

val completion_line : Server.completion -> string
(** Render an asynchronous completion as its reply line:
    [RESULT <seq> <escaped result>] or [ERROR <seq> <escaped msg>]. *)

val escape : string -> string
val unescape : string -> string
