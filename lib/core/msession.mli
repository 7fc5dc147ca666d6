(** The multidatabase session: the top of Figure 1.

    A session owns the Auxiliary Dictionary, the Global Data Dictionary,
    the Narada resource directory and the simulated network. [exec] runs
    the full §4.3 pipeline on MSQL text: parse → multiple-identifier
    substitution → disambiguation → decomposition → DOL plan generation →
    execution by the DOL engine; [translate] stops after plan generation
    and returns the DOL program, like the paper's translator. *)

(** Outcome of a multiple update with respect to its vital set (§3.2.1):
    [Success] — every VITAL subquery committed; [Aborted] — every VITAL
    subquery was rolled back or compensated; [Incorrect] — the vital set
    split (some committed, some not, or a state is unknown after a site
    failure). *)
type update_outcome = Success | Aborted | Incorrect

type db_report = {
  rdb : string;  (** database *)
  rvital : Ast.vital;
  rstatus : Narada.Dol_ast.status;  (** final task status *)
  raffected : int option;  (** rows affected, when the task ran *)
}

type result =
  | Multitable of Multitable.t  (** retrieval result *)
  | Update_report of {
      outcome : update_outcome;
      details : db_report list;
      dolstatus : int;
      elapsed_ms : float;
    }
  | Mtx_report of {
      chosen : int option;  (** 0-based index of the acceptable state
                                 reached; [None] when the multitransaction
                                 failed and was fully undone *)
      incorrect : bool;  (** an unacceptable mixed state was reached *)
      details : db_report list;
      elapsed_ms : float;
    }
  | Info of string  (** INCORPORATE / IMPORT acknowledgement *)

type cache_stats = Metrics.cache_stats = {
  pool_hits : int;  (** OPENs served by an idle pooled connection *)
  pool_misses : int;  (** OPENs that dialed *)
  pool_discarded : int;  (** pooled connections dropped as stale *)
  pool_conflicts : int;  (** checkouts refused at the connection cap *)
  plan_hits : int;  (** statements served a memoized compiled plan *)
  plan_misses : int;  (** statements planned from scratch *)
  result_hits : int;  (** MOVEs served from the shipped-result cache *)
  result_misses : int;  (** MOVEs that shipped over the network *)
}

type t

val create :
  ?world:Netsim.World.t ->
  ?directory:Narada.Directory.t ->
  ?ad:Ad.t ->
  ?gdd:Gdd.t ->
  unit ->
  t
(** A session over (by default) a fresh world, directory and dictionary
    pair. A server passes one shared [?ad]/[?gdd] to every member
    session — the dictionaries {e are} the shared global schema, and
    sharing the instances is what makes cross-session cache keys (which
    embed {!Gdd.id} and the version epochs) comparable. *)

val world : t -> Netsim.World.t

val current_scope : t -> Ast.use_item list
(** The session's current scope: the effective scope of the last executed
    query. [USE CURRENT db ...] statements extend it; plain [USE]
    statements replace it. *)

val directory : t -> Narada.Directory.t
val ad : t -> Ad.t
val gdd : t -> Gdd.t

val incorporate_auto : t -> service:string -> (unit, string) Stdlib.result
(** Incorporate a service with an AD entry derived from its actual engine
    capabilities (and its directory site). *)

val import_all : t -> service:string -> (unit, string) Stdlib.result
(** IMPORT DATABASE <service's db> FROM SERVICE <service>. *)

val exec_toplevel : t -> Ast.toplevel -> (result, string) Stdlib.result
val exec : t -> string -> (result, string) Stdlib.result
(** Parse and execute one top-level MSQL statement. *)

val exec_script : t -> string -> (result list, string) Stdlib.result

val translate : t -> string -> (Narada.Dol_ast.program, string) Stdlib.result
(** MSQL → DOL translation only (no execution); the paper's translator
    output for the statement. Planned like execution, through the plan
    cache, so the plan counts in {!metrics} (a multitransaction in
    [plans_mtx]) and a query persists its effective scope. *)

val run_query : t -> Ast.query -> (result, string) Stdlib.result
val run_mtx : t -> Ast.multitransaction -> (result, string) Stdlib.result

(** {2 Stepped execution}

    The interleaving harness ({!Interleave}) runs several sessions'
    statements against shared sites one DOL statement at a time, under a
    deterministic schedule. {!prepare_text} runs phases 1–4 of the
    pipeline (parse → expansion → decomposition → plan generation) and
    starts a stepped engine run without executing anything; each {!step}
    executes one top-level DOL statement; {!finish} drains whatever
    remains, runs the engine epilogue (in-doubt resolution, split
    settlement, connection release) and interprets the outcome exactly
    as {!exec} would. Interdatabase triggers do {e not} fire on this
    path. *)

type prepared

val prepare_text : t -> string -> (prepared, string) Stdlib.result
(** Plan one MSQL query or multitransaction for stepped execution.
    Statements with no DOL translation (EXPLAIN, dictionary and trigger
    statements) are rejected. *)

val step : prepared -> bool
(** Execute the next DOL statement; [false] when the program is
    exhausted and only {!finish} remains (see {!Narada.Engine.step}). *)

val finish : prepared -> (result, string) Stdlib.result
(** Drain remaining statements, run the epilogue and interpret the
    outcome. Idempotent at the engine level; interpret runs per call. *)

val prepared_move_dsts : prepared -> string list
(** The services the program's MOVEs ship into — where it creates
    temporary tables ([msql_tmp_<k>], named per plan, not per session).
    Empty for single-database statements and replicated updates. The
    server's scheduler refuses to interleave two statements whose
    MOVE destinations intersect: their temp-table names would collide. *)

val prepared_session : prepared -> t

val set_typed_trace : t -> (Narada.Trace.event -> unit) option -> unit
(** Install a trace sink: every DOL engine coordination event of
    subsequent queries, plus the pool's validation events, as
    {!Narada.Trace.event} values (the shell's [--trace] prints
    {!Narada.Trace.render} of each). The session's {!metrics} registry
    observes the stream regardless. *)

val set_trace_tag : t -> string option -> unit
(** Stamp every subsequently observed trace event with this tag (unless
    the event already carries one) before it reaches the registry and
    the typed sink. The server tags each member session with its session
    id, so the merged multi-session event stream stays attributable.
    {!Narada.Trace.render} ignores tags — the textual trace is
    unchanged. *)

val trace_tag : t -> string option

val metrics : t -> Metrics.t
(** The session's metrics registry: planning counters bumped by the
    pipeline, engine counters folded from the typed trace stream and the
    engine outcomes. Live — read at any time, {!Metrics.reset} to zero. *)

val metrics_json : t -> string
(** {!Metrics.to_json} of the registry against the session's world and
    {!cache_stats} — one self-contained JSON document. *)

val explain_multiple : t -> Ast.query -> (result, string) Stdlib.result
(** [EXPLAIN MULTIPLE <query>]: plan the query exactly as execution
    would — phases 1–4 (scope resolution, expansion, decomposition with
    the semijoin cost decision, DOL plan generation), through the plan
    cache — and return an [Info] rendering the planning record phase by
    phase, without executing anything: the world's clock and message
    counters do not move. Like execution, it persists the effective
    scope and counts the plan in {!metrics}. *)

val set_retry_policy : t -> Narada.Retry_policy.t option -> unit
(** Override the retry policy applied to every LAM operation of
    subsequent queries ([None] restores {!Narada.Retry_policy.default}). *)

val last_engine_outcome : t -> Narada.Engine.outcome option
(** The full engine outcome of the last executed statement, including the
    fault-tolerance counters (retries, recovered, in-doubt, vital split). *)

val set_dataflow : t -> bool -> unit
(** Enable the dataflow wave scheduler ({!Narada.Dol_graph.schedule},
    the only DOL optimizer) on generated plans — default {b on}. The
    pass regroups each DOL program into maximal order-preserving
    [PARBEGIN] waves, so statuses, results and database state are
    byte-identical to the unscheduled program while independent
    statements' virtual latencies max-merge instead of summing. Affects
    plan generation, so it participates in the plan-cache key. *)

val dataflow_enabled : t -> bool

val set_semijoin : t -> bool -> unit
(** Enable the cost-gated semijoin reduction of shipped subqueries
    (default: on). The gate only fires when the GDD has cardinalities for
    the involved tables, recorded at IMPORT time; see
    {!Decompose.decompose}. *)

val semijoin_enabled : t -> bool

(** {2 Session performance layer}

    Every statement is planned once per distinct planning input: the plan
    cache is always on. Its key is the {!Gdd.id}, the
    {!Gdd.version}/{!Ad.version} epochs, the dataflow/semijoin
    flags and the statement after virtual-database expansion (so it names
    the effective scope and the multidatabases' current members). A hit
    therefore cannot change the program, and shows only in
    {!cache_stats}: each use of a plan notes its planning metrics, hit or
    miss. Any IMPORT or INCORPORATE misses; errors are not cached.

    Two further reuse mechanisms change traffic, so they stay toggles,
    off by default so that traffic matches the paper's per-statement
    shape unless asked otherwise. Both are exercised as ablations by
    bench P10. *)

val set_pooling : t -> bool -> unit
(** Keep LAM connections in a {!Narada.Pool} owned by the session: OPEN
    checks out an idle healthy connection instead of dialing and CLOSE
    parks it instead of hanging up. Stale connections (site down while
    idle, orphaned transaction) are validated out at checkout. Disabling
    drains the pool. *)

val pooling_enabled : t -> bool

val set_shared_pool : t -> Narada.Pool.t -> unit
(** Attach a pool owned by someone else (the server): OPEN/CLOSE check
    out of and into it like {!set_pooling}, but the session never drains
    it — other sessions' parked connections live there too — and the
    pool's trace sink is left to its owner. A previously owned private
    pool is drained first. *)

(** {2 Cross-session sharing}

    A server multiplexing many sessions over one federation shares three
    things besides the world: the dictionaries (via {!create}'s
    [?ad]/[?gdd]), the LAM connection pool ({!set_shared_pool}) and the
    statement caches below. *)

type shared_caches
(** A plan + shipped-result cache block. Execution is sequential, so
    sharers read and write it directly. Every session holds one: a
    private block from {!create}, or a communal one after
    {!set_shared_caches}. Keys embed {!Gdd.id} and the dictionary
    versions, and shipped entries are stamped with the storing session's
    dictionary epoch, so an IMPORT invalidates for every sharer at
    once. *)

val shared_caches : unit -> shared_caches

val set_shared_caches : t -> shared_caches -> unit
(** Replace the session's cache block with a communal one and enable the
    shipped-result cache. Per-session hit/miss counters keep counting
    locally, so {!cache_stats} still reports each session's own
    traffic. *)

val set_domains : t -> int -> unit
(** No effect; kept only because [msqlbench/] sets it. *)

val set_result_cache : t -> bool -> unit
(** Cache the relation each MOVE ships, keyed on (source, destination,
    shipped SQL after semijoin reduction — the key set is part of the
    text). A hit moves zero bytes. Entries are dropped when a committed
    update reports affected rows against their source or destination
    database, and on any dictionary change. Disabling empties the
    shipped-result table of the session's cache block. *)

val result_cache_enabled : t -> bool

val cache_stats : t -> cache_stats
(** Hit/miss counters of the pool, plan and shipped-result caches (zeros
    where a layer is off). *)

val triggers : t -> (string * Ast.trigger_def) list
(** Registered interdatabase triggers, in creation order. *)

val trigger_log : t -> string list
(** Firing log (oldest first): one entry per condition evaluation that
    fired an action, plus entries for refused or failed actions. *)

val update_outcome_to_string : update_outcome -> string
val result_to_string : result -> string
