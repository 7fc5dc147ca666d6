(** Concurrent multi-session MSQL server core.

    One server owns a federation (world + Narada directory) and
    multiplexes many {!Msession}s over it, sharing what the
    single-session design kept private:

    - the {!Ad}/{!Gdd} dictionary pair, so plan cache keys are
      comparable across sessions;
    - one LAM connection {!Narada.Pool} with an optional per-service
      connection cap — the member database's resource limit;
    - one plan + shipped-result cache block ({!Msession.shared_caches}),
      which every member session uses in place of its private block, so
      one session's planning warms the others.

    A member session runs every statement kind a single session does,
    down the same {!Msession.prepare_text} → {!Msession.step} →
    {!Msession.finish} path as {!Msession.exec}: EXPLAIN, dictionary,
    multidatabase and trigger statements take no steps and run at
    finish, and a statement's writes fire that session's interdatabase
    triggers. Multidatabases and triggers are per session.

    Scheduling is a synchronous {e wave} loop ({!step_round}): each
    round admits at most one statement per session in connect order —
    per-session fairness at statement granularity — then runs the whole
    wave as one {!Interleave.round_robin} group, one DOL statement per
    member in turn, deterministically. Each member steps on its own
    virtual clock, so a round advances the world clock by its slowest
    member, not by the sum. Members shipping into one site share nothing:
    a MOVE's temp table lands in the receiving LAM connection
    ({!Narada.Lam.transfer}), which belongs to one member's run.

    A statement that loses a race for a capped connection fails its OPEN
    with [Narada.Lam.Busy]; the scheduler observes it on the session's
    typed trace (an [Open_failed] event flagged [busy]) and — provided the
    statement left no site effects behind (any retrieval, a fully
    aborted update, a fully undone multitransaction) — requeues it at
    the front of its session's queue, at most [max_requeues] times. *)

type config = {
  max_sessions : int;  (** admission: connect beyond this is refused *)
  max_queue : int;  (** per-session queue depth: submit beyond is shed *)
  max_requeues : int;  (** busy-conflict replays per statement *)
  pool_cap : int option;
      (** per-service connection cap on the shared pool ({!Narada.Pool.set_cap}) *)
  domains : int;
      (** no effect; kept only because [msqlbench/] sets it *)
}

val default_config : unit -> config
(** 64 sessions, queue depth 16, 8 requeues, no cap. *)

(** Typed overload/addressing errors — the admission-control surface. *)
type error =
  | Overloaded of string
      (** session table full (connect) or queue full (submit) — the
          caller should back off and retry later *)
  | Unknown_session of int

val error_message : error -> string

type completion = {
  c_sid : int;
  c_seq : int;  (** per-session statement sequence from {!submit} *)
  c_sql : string;
  c_result : (Msession.result, string) result;
  c_requeues : int;  (** busy-conflict replays this statement took *)
}

type stats = {
  mutable connects : int;
  mutable rejected : int;  (** connects refused at the session cap *)
  mutable submitted : int;
  mutable shed : int;  (** submits refused at the queue cap *)
  mutable completed : int;
  mutable failed : int;
  mutable requeues : int;
  mutable rounds : int;
  mutable parallel_batches : int;
      (** no effect, always 0; kept only because [msqlbench/] reads it *)
}

type t

val create :
  ?config:config ->
  world:Netsim.World.t ->
  directory:Narada.Directory.t ->
  services:string list ->
  unit ->
  (t, string) result
(** A server over an existing federation: builds a fresh dictionary
    pair, INCORPORATEs and IMPORTs every listed service into it, then
    shares it with every member session. *)

val of_fixtures : ?config:config -> Fixtures.t -> t
(** A server over a {!Fixtures} federation, sharing the fixture
    session's already-populated dictionaries. *)

val connect : t -> (int, error) result
(** Admit a session: a fresh {!Msession} sharing the server's world,
    dictionaries, pool and caches, trace-tagged ["s<id>"]. Fails
    [Overloaded] when the session table is full. *)

val disconnect : t -> int -> (unit, error) result
(** Retire a session. Its counts stay in {!metrics}, which already
    folded its events; statements still queued are dropped. *)

val submit : t -> int -> string -> (int, error) result
(** Enqueue one MSQL statement; returns its per-session sequence
    number. Fails [Overloaded] when the session's queue is at
    [max_queue] — queue-depth shedding. *)

val step_round : t -> completion list
(** Run one scheduler round: up to one statement per session, in
    connect order. Returns the completions the round produced (requeued
    statements produce none yet), in wave order. Empty when nothing was
    queued. *)

val drain : t -> completion list
(** {!step_round} until every queue is empty. Terminates because
    requeues are bounded. *)

val queued : t -> int
(** Statements currently queued across all sessions. *)

val live_sessions : t -> int

val session : t -> int -> Msession.t option
(** The member session behind an id (for assertions in tests). *)

val world : t -> Netsim.World.t
val pool : t -> Narada.Pool.t
val stats : t -> stats

val set_trace : t -> (Narada.Trace.event -> unit) option -> unit
(** Observe the merged typed trace stream of every member session; each
    event's [tag] carries the originating session ("s<id>"). *)

val cache_stats : t -> Metrics.cache_stats
(** The cache block of {!metrics}: every member session's (live and
    retired) pool, plan and result consultations. *)

val metrics : t -> Metrics.t
(** The server's live registry: the {!Metrics.observe} fold of every
    event a member session (live or retired) told, counted as the event
    passes the sink {!connect} installs. The record keeps counting after
    it is returned, so a reader that wants a point-in-time value copies
    the fields it uses. *)

val metrics_json : t -> string
val stats_json : t -> string
