(** Dataflow analysis of DOL programs: per-statement read/write summaries,
    the dependency DAG they induce, and order-preserving regrouping of a
    program into maximal [PARBEGIN] waves.

    The scheduled program performs the same effects in the same order as
    the serial one — under the engine's sequential combinator a [Parallel]
    block executes branches in declaration order, each in a virtual-clock
    frame starting at the block's t0 — so statuses, results, database
    state, message sequence and loss draws are byte-identical; only
    virtual-time accounting changes. *)

type rw = {
  status_reads : string list;
  status_writes : string list;
  aliases : (string * bool) list;
      (** [true] marks the shareable MOVE-destination use of an alias *)
  decision : bool;
  dolstatus : bool;
}

val conflicts : rw -> rw -> bool
(** Must these two statements stay ordered? *)

type stats = {
  nodes : int;
  edges : int;
  waves : int;  (** waves of two or more statements formed *)
  critical_path_len : int;  (** longest chain of the top-level program *)
}

val schedule : Dol_ast.program -> Dol_ast.program * stats
(** Regroup the program (and, recursively, every IF branch) into maximal
    waves. Single-statement waves stay bare statements. *)

val label : Dol_ast.stmt -> string
(** One-line statement summary used by the DAG rendering. *)

val describe : Dol_ast.program -> string
(** Human-readable DAG: nodes with their dependencies, waves, and the
    critical path — what EXPLAIN MULTIPLE appends as phase 5. Idempotent
    over {!schedule}: describing a scheduled program re-derives the same
    analysis, since waves dissolve like any other [PARBEGIN] block. *)
