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
    connections are discarded (their orphaned active transaction rolled
    back, as the LDBMS does autonomously when a session dies) and a fresh
    connection is dialed transparently.

    A pool may be shared by many sessions (the MSQL server checks every
    session's OPENs out of one pool), and an optional per-service
    {!set_cap} bounds how many connections to one service can be live at
    once across all sharers — the resource limit of the member database. A capped-out
    checkout fails with a {e transient} [Lam.Busy] failure; the engine
    flags it as [busy] on the [Trace.Open_failed] event, and the
    server's scheduler requeues the whole statement and retries it after
    the holder's statement has released its connection. *)

type t

type stats = {
  mutable hits : int;  (** checkouts served by an idle pooled connection *)
  mutable misses : int;  (** checkouts that had to dial *)
  mutable discarded : int;  (** idle connections dropped as stale *)
  mutable conflicts : int;
      (** checkouts refused because the service was at its cap *)
}

val create : Netsim.World.t -> t

val set_trace : t -> (Trace.event -> unit) -> unit
(** Install a typed-event sink; the pool reports discarded stale
    connections ({!Trace.Pool_stale}) through it. Replaces any previous
    sink. *)

val set_cap : t -> int option -> unit
(** Bound concurrent checkouts per service ([None] — the default — is
    unlimited; values below 1 clear the cap). With a cap of [n], the
    [n+1]-th simultaneous checkout of the same service returns
    [Lam.Busy]. *)

val cap : t -> int option

val checked_out : t -> string -> int
(** Connections to the named service currently checked out. *)

val stats : t -> stats

val size : t -> int
(** Idle connections currently parked. *)

val checkout :
  ?retry:Retry_policy.t ->
  ?on_retry:Lam.on_retry ->
  ?on_trace:(Trace.event -> unit) ->
  t ->
  Service.t ->
  (Lam.t, Lam.failure) result
(** An idle healthy connection to the service if one is parked (rebound
    to the given retry policy and observers), else a fresh
    {!Lam.connect}. Stale parked connections encountered on the way are
    discarded and counted. With a cap set and the service fully checked
    out, fails fast instead (see {!set_cap}). *)

val checkin : t -> Lam.t -> unit
(** Park the connection for reuse. Refused — with full
    {!Lam.disconnect} semantics instead — when the site is currently
    down or the session still holds a transaction. Either way the
    connection leaves the in-use ledger. *)

val drain : t -> unit
(** Disconnect and forget every idle connection. *)
