(** Deterministic failure injection.

    Stands in for the paper's "local conflicts, failure, deadlock, etc."
    (§3.2) that force an LDBMS to abort a subquery. Failures can be queued
    one-shot at a named point, or drawn from a seeded random source for
    benchmarks.

    Each failure has a {!kind}: [Fatal] failures model semantic errors and
    unresolvable aborts (retrying is pointless); [Transient] failures
    model deadlock victims, lock timeouts and refused connections — the
    operation was rolled back but an identical retry may succeed. The
    session reports a fired failure as [Session.Injected {kind; point}],
    and retry layers classify it on [kind]. *)

type point =
  | At_connect  (** refusing a new session (listener busy/restarting) *)
  | At_execute  (** while executing a statement (local conflict/deadlock) *)
  | At_prepare  (** failing to reach the prepared-to-commit state *)
  | At_commit  (** failing during commit of a prepared transaction *)

type kind = Transient | Fatal

type t

val create : unit -> t
(** No failures. *)

val fail_next : ?kind:kind -> t -> point -> unit
(** Queue a one-shot failure for the next occurrence of [point]. Multiple
    queued failures at the same point fire in order. [kind] defaults to
    [Fatal]. *)

val set_random : ?kind:kind -> t -> seed:int -> prob:float -> unit
(** Additionally fail each point check with probability [prob], drawn from
    a private PRNG seeded with [seed]. Exactly one draw is consumed per
    check, so the firing sequence is a deterministic function of the
    seed. *)

val clear : t -> unit

val fires : t -> point -> bool
(** Check-and-consume: [true] when a failure should be injected here. *)

val fires_kind : t -> point -> kind option
(** Like {!fires} but reports the kind of the injected failure. *)

val point_to_string : point -> string
