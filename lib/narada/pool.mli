(** LAM connection pool: amortizes the per-statement OPEN/CLOSE round
    trips of a long-lived session.

    Every generated DOL program begins by OPENing its participating
    services and ends by CLOSEing them, so a stream of statements pays a
    connect handshake per service per statement. A pool owned by the
    multidatabase session turns that into one handshake per service per
    {e lifetime}: {!checkout} hands back an idle healthy connection
    instead of dialing, and {!checkin} parks the connection instead of
    hanging up.

    Health of an idle connection is validated at checkout, never assumed:
    the site must be up {e now}, must not have been down at any point
    since the connection was parked ({!Netsim.World.down_during} — an
    outage while idle breaks the transport even if the site has since
    recovered), and the session must hold no transaction. Stale
    connections are discarded ({!Ldbms.Session.close}, as the LDBMS ends
    a dead session) and a fresh connection is dialed transparently. A
    reused connection reads its database's change stamp as it passes
    these checks, at no message cost, for the shipped-result cache.

    The pool keeps no counters. Each checkout reports what it did to the
    checkout's own [?on_trace] — the session that checked out: a
    {!Trace.Cache} event with layer {!Trace.Pool} (hit or dial) and a
    {!Trace.Pool_stale} event per discarded connection (a capped-out
    checkout is reported by the engine, below). Counting is
    [Msql.Metrics]'s fold of that stream, so a shared pool's traffic is
    attributed to the session that caused it.

    A pool may be shared by many sessions (the MSQL server checks every
    session's OPENs out of one pool), and an optional per-service
    {!set_cap} bounds how many connections to one service can be live at
    once across all sharers — the resource limit of the member database. A capped-out
    checkout fails with a {e transient} [Lam.Busy] failure; the engine
    flags it as [busy] on the [Trace.Open_failed] event, and the
    server's scheduler requeues the whole statement and retries it after
    the holder's statement has released its connection. *)

type t

val create : Netsim.World.t -> t

val set_cap : t -> int option -> unit
(** Bound concurrent checkouts per service ([None] — the default — is
    unlimited; values below 1 clear the cap). With a cap of [n], the
    [n+1]-th simultaneous checkout of the same service returns
    [Lam.Busy]. *)

val cap : t -> int option

val checked_out : t -> string -> int
(** Connections to the named service currently checked out. *)

val size : t -> int
(** Idle connections currently parked. *)

val checkout :
  ?retry:Retry_policy.t ->
  ?on_retry:Lam.on_retry ->
  ?on_trace:(Trace.event -> unit) ->
  t ->
  Service.t ->
  (Lam.t * bool, Lam.failure) result
(** An idle healthy connection to the service if one is parked (rebound
    to the given retry policy and observers), paired with [true]; else a
    fresh {!Lam.connect}, paired with [false]. Stale parked connections
    encountered on the way are discarded. Each consultation and discard
    is told to [on_trace] (see above). With a cap set and the service
    fully checked out, fails fast instead (see {!set_cap}). *)

val checkin : t -> Lam.t -> unit
(** Park the connection for reuse, its landing tables dropped
    ({!Ldbms.Session.close} with no transaction open; no message, like
    the stamp read at checkout). Refused — with full
    {!Lam.disconnect} semantics instead — when the site is currently
    down or the session still holds a transaction. Either way the
    connection leaves the in-use ledger. *)

val drain : t -> unit
(** Disconnect and forget every idle connection. *)
