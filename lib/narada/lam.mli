(** Local Access Manager: the per-service agent that executes local
    commands on behalf of the DOL engine and ships partial results
    (Figure 1).

    Every interaction charges the simulated network: commands travel
    engine→site, results site→engine, and relation transfers go directly
    site→site as the paper allows LAMs to exchange data with each other.

    Every operation runs under the connection's {!Retry_policy}: transient
    failures (site inside an outage window, lost message, deadlock-victim
    abort) are retried with exponential backoff charged to the virtual
    clock; a retry is attempted only when the local state is known safe
    (command never delivered, or the LDBMS rolled the work back). *)

type t

(** How an operation failed, after retries were exhausted or the failure
    was terminal: [Local] failures are aborts raised by the database
    itself (write-write conflicts, injected local failures, semantic
    errors) — the session has rolled back; [Network] failures mean the
    site could not be reached; [Lost] means a message vanished in
    transit. For [Network] and [Lost] the local state is clean: the
    command never took effect, or the LDBMS rolled the orphaned work
    back. [In_doubt] is the dangerous case — effects may already be
    durable at the site (autocommit engine, or a script that
    committed/prepared before the transport failed). [Busy svc] is a
    {!Pool} checkout refused because [svc] was at its connection cap;
    nothing was sent. *)
type failure =
  | Local of Ldbms.Session.error
  | Network of string
  | Lost of string
  | In_doubt of string
  | Busy of string

type on_retry = op:string -> attempt:int -> delay_ms:float -> failure -> unit
(** Observes each re-attempt, after its backoff was charged, with the
    failure being retried. *)

val connect :
  ?retry:Retry_policy.t ->
  ?on_retry:on_retry ->
  ?on_trace:(Trace.event -> unit) ->
  Netsim.World.t ->
  Service.t ->
  (t, failure) result
(** Opens the service: establishes the session and charges a handshake
    message, retrying per [retry] (default {!Retry_policy.default}). The
    policy and [on_retry] observer are remembered for all later
    operations on this connection. [on_trace] subscribes to the session's
    MVCC observations (snapshot acquisitions, write-write conflicts),
    delivered as {!Trace.Snapshot} / {!Trace.Conflict} events. Checks the
    service's failure injector at [At_connect]. *)

val connect_exn : Netsim.World.t -> Service.t -> t
(** Single-attempt connect that raises [Failure] instead of returning a
    result — convenience for tests and fixtures. *)

val service : t -> Service.t
val session : t -> Ldbms.Session.t
val site : t -> string
val world : t -> Netsim.World.t

val with_policy :
  ?retry:Retry_policy.t ->
  ?on_retry:on_retry ->
  ?on_trace:(Trace.event -> unit) ->
  t ->
  t
(** The same connection under a different retry policy and observers
    (defaults as for {!connect}), with the database's change stamp read
    afresh. Used when a pooled connection is reused by a later engine
    run: retries and MVCC observations are reported to the run that is
    executing, and its MOVEs look up the cache under its own stamp. *)

val failure_message : failure -> string
(** The failure's text; a [Local] one is {!Ldbms.Session.error_to_string}. *)

val classify_io : failure -> Retry_policy.classification
(** Transport failures retryable, every local abort terminal — the rule
    for 2PC verbs. *)

val classify_local_aware : failure -> Retry_policy.classification
(** Like {!classify_io} but the LDBMS's transient aborts — a
    [Session.Conflict] or a [Transient] [Session.Injected] — are also
    retryable: the rule for statement execution. *)

val exec_script : t -> string -> (Ldbms.Session.result list, failure) result
(** Ship a SQL script to the LAM and execute it statement by statement.
    Charges the command bytes out and the result bytes back. On a
    connection loss after execution, the LDBMS aborts the orphaned active
    transaction (making the retry sound); if effects may already be
    durable (autocommit engine), the failure is terminal. *)

val last_relation : Ldbms.Session.result list -> Sqlcore.Relation.t option
(** The last [Rows] result of a script, if any. *)

val prepare : t -> (unit, failure) result
(** First phase of 2PC: one round trip. Idempotent, so lost
    acknowledgements are retried blindly. *)

val commit : t -> (unit, failure) result
val rollback : t -> (unit, failure) result

val fetch : t -> string -> (Sqlcore.Relation.t, failure) result
(** Execute a SELECT and return its result (command out, data back). *)

type transfer_cache = {
  tc_lookup :
    src:string -> dst:string -> query:string -> stamp:int ->
    Sqlcore.Relation.t option;
  tc_store :
    src:string -> dst:string -> query:string -> stamp:int ->
    Sqlcore.Relation.t -> unit;
}
(** Shipped-result cache hook for {!transfer}. [src]/[dst] are service
    names and [query] is the final shipped SQL {e after} any semijoin
    rewrite, so the reduction's key set is part of the key and the
    destination's data needs no check of its own. [stamp] is the source
    database's {!Ldbms.Database.change_stamp}: a lookup passes the value
    learned when the run opened the source (on the dial's handshake, or
    at the pool checkout), a store the value read after the shipped query
    ran. An entry is valid only while the two are equal, so no writer has
    to invalidate anything. *)

val ack_bytes : int
(** Wire size of a protocol acknowledgement; a MOVE's data message
    carries one after the relation. *)

type transfer_stats = {
  moved_rows : int;  (** rows materialized at the destination *)
  moved_bytes : int;
      (** payload bytes shipped on the [src -> dst] wire; [0] on a cache
          hit (protocol overhead excluded) *)
  reduced : bool;  (** the semijoin rewrite was actually applied *)
  cached : bool;  (** served from the shipped-result cache *)
}

val transfer :
  cache:transfer_cache option ->
  reduce:(string * string) option ->
  src:t ->
  dst:t ->
  query:string ->
  dest_table:string ->
  (transfer_stats, failure) result
(** Run [query] at [src] and land the result in [dst]'s session as the
    table [dest_table] ({!Ldbms.Session.land_table}: only statements on
    [dst] see it, never the destination's catalog), shipping the data
    directly between the two sites. Returns what moved and how.
    Idempotent end to end, retried as a unit under [src]'s policy.

    The data ships as one message from [src]'s site to [dst]'s: one
    {!Netsim.World.send} of [Relation.size_bytes] of the result plus
    {!ack_bytes}, with one loss draw.

    With [cache = Some _], a lookup hit short-circuits the whole operation: the
    cached relation lands at [dst] with zero network traffic
    (the semijoin probe, if any, has already been paid for). A successful
    uncached transfer stores its relation.

    [reduce = (col, probe)] applies a semijoin reduction first: [probe] is
    evaluated at [dst], and [query] is rewritten with
    [col IN (distinct probe values)] (a contradiction when the key set is
    empty) before being shipped to [src]. The probe's round trip is
    charged to the network, so the reduction pays for its keys. If the
    probe fails, or [query] is not a bare SELECT the rewrite can parse (a
    trailing [;] included), the transfer proceeds unreduced and reports
    [reduced = false].

    Several transfers from {e distinct} sources may share one [dst]:
    execution is sequential, so their destination-side work (probe,
    materialize) never overlaps, and each branch's network charges go to
    its own clock frame. *)

val disconnect : t -> unit
(** Close the session ({!Ldbms.Session.close}: its landing tables go, an
    {e active} transaction is rolled back, a {e prepared} one survives at
    the site, and is the engine's to settle by presumed abort or verdict
    replay). Charges a goodbye message when the site is reachable. *)
