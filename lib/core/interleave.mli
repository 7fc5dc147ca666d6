(** Deterministic interleaving of several sessions' statements against
    shared sites.

    Each participant is one MSQL statement executed by its own
    {!Msession.t} — the sessions must share a
    {!Netsim.World.t} and {!Narada.Directory.t} (see
    [Msession.create ~world ~directory]) so their DOL programs hit the
    same sites. The harness plans every participant with
    {!Msession.prepare_text}, then executes their DOL statements one at
    a time under the given schedule: a given (participants, schedule)
    pair always produces the same interleaving, so the chaos and
    differential suites
    can script write-write anomaly scenarios (lost update, cross-site
    write skew) and assert the serial-equivalent outcome or the clean
    first-committer-wins abort — as exact replays, never races.

    Statement granularity: one step is one top-level DOL statement (a
    PARBEGIN block counts as one), so interleavings switch participants
    between OPENs, TASKs, COMMITs and CLOSEs — the windows where MVCC
    snapshots and first-committer-wins races are decided.

    Timing: every participant starts at the world clock, and its steps
    and epilogue run in its own clock frame ({!Netsim.World.in_frame}),
    resumed where its last step stopped; then the world advances to the
    latest finish. Effects keep the schedule's order; sites are free of
    contention. *)

type participant = {
  label : string;  (** name used by {!Script} and in the outcome *)
  session : Msession.t;
  sql : string;
      (** one MSQL statement; one with no DOL program (EXPLAIN, a
          dictionary or trigger statement) takes no steps and runs at
          its epilogue *)
}

type schedule =
  | Round_robin
      (** cycle through the participants in declaration order, one
          statement each, until all are exhausted *)
  | Script of string list
      (** step the named participants in exactly this order (labels are
          case-insensitive; a label may appear any number of times;
          stepping an exhausted participant is a no-op); anything left
          unstepped afterwards completes round-robin. Unknown labels
          raise [Invalid_argument]. *)
  | Seeded of int
      (** pseudo-random but fully deterministic: a seeded LCG picks the
          next live participant at every step *)

type outcome = (string * (Msession.result, string) result) list
(** One entry per participant, in declaration order. *)

val run : schedule:schedule -> participant list -> outcome
(** Plan every participant, interleave their DOL statements under the
    schedule, then run the engine epilogues (in-doubt resolution, split
    settlement, connection release) in declaration order with
    {!Msession.finish}, which interprets each outcome and fires triggers
    exactly as {!Msession.exec} would. A participant whose parsing or
    planning fails contributes its error and takes no steps. *)

val round_robin :
  Netsim.World.t -> Msession.prepared list -> (Msession.result, string) result list
(** {!run} under {!Round_robin} over prepared statements, returning the
    results in list order: the server runs each round on it. *)

val result_of : outcome -> string -> (Msession.result, string) result
(** The entry for a label (case-insensitive). *)
