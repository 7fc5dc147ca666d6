(** The DOL engine: executes DOL programs, coordinating LAMs (§4.1).

    Task statuses evolve as in the paper: a NOCOMMIT task that executes
    without error reaches the prepared-to-commit state [P]; a committing
    task reaches [C]; a local abort gives [A]; an unreachable site gives
    [E]; compensation gives the compensated task [X]. COMMIT and ABORT
    drive prepared tasks to [C]/[A]. IF conditions read these letters.

    Fault tolerance: every site interaction runs under a {!Retry_policy}
    (transient failures retried with backoff charged to the virtual
    clock). Each task that reaches [P] is recorded in a
    {!Recovery_log} together with the later global verdict; a site that
    fails inside the 2PC second-phase window leaves the task at [E]
    (in doubt), and after the program ends a resolution pass re-polls
    such sites — waiting in virtual time up to a grace budget for
    scheduled recoveries — and drives stranded prepared transactions to
    the logged verdict. A commit group whose members still did not all
    reach [C] is a {e vital split} (the paper's "incorrect" state,
    §3.2): the engine fires any COMP statements registered for the
    committed members (even ones in untaken branches), and reports the
    split in the outcome if members remain committed.

    An [Error] result means the {e program} was malformed (unknown alias,
    duplicate task name, ...) — execution failures are normal outcomes,
    reported in the statuses. *)

type outcome = {
  dolstatus : int;  (** return code set by [DOLSTATUS = n]; -1 if never set *)
  statuses : (string * Dol_ast.status) list;
      (** every declared task/move/comp, in order of appearance *)
  results : (string * Sqlcore.Relation.t) list;
      (** partial results: task name -> last rows produced *)
  rowcounts : (string * int) list;
      (** task name -> rows affected by its DML statements *)
  elapsed_ms : float;  (** virtual time consumed by the program *)
  in_doubt : int;
      (** tasks still stranded in doubt when the engine gave up *)
  vital_split : bool;
      (** a commit group ended with some members committed and some not,
          and compensation could not undo the committed ones *)
}
(** What the program left behind. The run's counts — retries, 2PC
    decisions, in-doubt recoveries, MOVE traffic — are not tallied here:
    each is a {!Trace} event, and a caller folds the [on_trace] stream
    (for instance into an [Msql.Metrics] registry) to count them. The
    epilogue's own figures are told as well, by one [Run_ended] event
    carrying [elapsed_ms], [in_doubt] and [vital_split]. *)

val run :
  ?on_trace:(Trace.event -> unit) ->
  ?retry:Retry_policy.t ->
  ?recovery_grace_ms:float ->
  ?pool:Pool.t ->
  ?move_cache:Lam.transfer_cache ->
  directory:Directory.t ->
  world:Netsim.World.t ->
  Dol_ast.program ->
  (outcome, string) result
(** [on_trace] receives one typed {!Trace.event} per coordination step
    (opens/closes, task status transitions, branch decisions, data moves
    with byte counts and semijoin/cache provenance, retries, 2PC
    decisions, in-doubt recoveries, and the [pool]'s consultations and
    stale discards), timestamped with the virtual clock, and ends with one
    [Run_ended] (or, for a malformed program, [Run_failed]) event after
    the epilogue. A caller that wants the line-oriented trace renders each
    event with {!Trace.render}.

    A [Program_error] (the [Error _] return) still runs the
    release/presumed-abort epilogue: connections the faulty program
    already opened are checked back into the pool (or disconnected) and
    their undecided prepared transactions rolled back.

    [retry] (default {!Retry_policy.default}) governs every LAM
    operation. [recovery_grace_ms] (default 500) bounds how long, in
    virtual time, the end-of-program resolution pass waits for sites
    holding in-doubt transactions to recover.

    [pool] makes OPEN check an idle connection out of the pool instead of
    dialing (stale ones are validated out, see {!Pool}) and CLOSE check
    it back in instead of disconnecting — including the implicit CLOSE of
    aliases the program forgot. [move_cache] is consulted by every MOVE:
    a hit ships nothing (see {!Lam.transfer}); the cache's owner reports
    its consultations.

    The branches of a PARBEGIN block run one after another, each in its
    own virtual clock frame starting at the block's start: the block
    costs its slowest branch, as at autonomous sites working
    concurrently. 2PC second-phase fan-outs and the in-doubt resolution
    pass are accounted the same way (one round trip, not one per
    participant). *)

val run_text :
  ?on_trace:(Trace.event -> unit) ->
  ?retry:Retry_policy.t ->
  ?recovery_grace_ms:float ->
  ?pool:Pool.t ->
  ?move_cache:Lam.transfer_cache ->
  directory:Directory.t ->
  world:Netsim.World.t ->
  string ->
  (outcome, string) result
(** Parse and run DOL program text. *)

(** {2 Stepped execution}

    The interleaving harness runs several multitransactions' programs
    against shared sites one top-level statement at a time, under a
    deterministic schedule. {!start} builds the engine state without
    executing anything; each {!step} executes the next top-level
    statement (a PARBEGIN block counts as one statement); {!finish}
    drains whatever remains and runs the end-of-program epilogue —
    in-doubt resolution, split settlement, release of held connections —
    exactly as {!run} would. [run] itself is [finish (start ...)], so
    the two paths cannot drift apart. *)

type stepper

val start :
  ?on_trace:(Trace.event -> unit) ->
  ?retry:Retry_policy.t ->
  ?recovery_grace_ms:float ->
  ?pool:Pool.t ->
  ?move_cache:Lam.transfer_cache ->
  directory:Directory.t ->
  world:Netsim.World.t ->
  Dol_ast.program ->
  stepper
(** Prepare a stepped run. Takes the same knobs as {!run}; no statement
    executes until the first {!step} (or {!finish}). *)

val step : stepper -> bool
(** Execute the next top-level statement. [true] if a statement ran —
    including one that died on a [Program_error], which poisons the run
    and leaves the error for {!finish} to report; [false] when the
    program is exhausted and only {!finish} remains. *)

val finish : stepper -> (outcome, string) result
(** Drain any remaining statements, then run the epilogue and build the
    outcome. Idempotent: later calls return the cached result without
    re-running anything. *)

val status_of : outcome -> string -> Dol_ast.status
(** Status of a named task; [N] if unknown. *)

val result_of : outcome -> string -> Sqlcore.Relation.t option
