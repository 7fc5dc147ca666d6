(** The primitives of expression evaluation, with SQL three-valued logic.

    {!Compile} assembles every expression the executor evaluates out of
    these operations, and the test suite's reference interpreter is built
    on the same ones. Booleans are represented as [Value.Bool]; the
    unknown truth value is [Value.Null]. Comparisons and arithmetic
    involving NULL yield NULL; AND/OR/NOT follow Kleene logic; WHERE keeps
    a row only when its predicate evaluates to [Bool true] (see
    {!truthy}). *)

exception Type_error of string
exception Unknown_column of string
exception Ambiguous_column of string

val truthy : Sqlcore.Value.t -> bool
(** [true] exactly for [Bool true]. *)

val logic_and : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_or : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_not : Sqlcore.Value.t -> Sqlcore.Value.t

val comparison :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Comparison operators only; anything else is a programming error. *)

val arith :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Arithmetic operators only. *)

val concat : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t

val negate_tv : bool -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Apply three-valued NOT when the flag is set ([negated] forms). *)

val in_values : Sqlcore.Value.t -> Sqlcore.Value.t list -> Sqlcore.Value.t
(** SQL IN: TRUE on an equal member, else UNKNOWN if any comparison
    involved NULL, else FALSE. The compiled hashed IN-list test must
    match it, and defers to it for a needle of another class. *)
