(** Session metrics registry.

    One registry per {!Msession.t} (and one per server) aggregates
    three families of counters, every one of them a fold of the typed
    {!Narada.Trace} stream by {!observe}, the registry's only writer:

    - {e planning} — phases 1–4: statements admitted ([Statement]), plan
      shapes chosen, subqueries shipped and semijoin gate outcomes
      ([Planned], told on every use of a plan), EXPLAINs ([Explained]);
    - {e engine} — execution: runs, errors, virtual time, in-doubt
      counts and vital splits ([Run_ended], [Run_failed]), retries (total
      and per site), 2PC verdicts, in-doubt recoveries, MVCC snapshots
      and conflicts, MOVE traffic (rows/bytes, semijoin-reduced moves) and
      dataflow waves;
    - {e caches} — pool, plan and shipped-result hits and misses, stale
      pool discards and capped-out checkouts, folded from the stream's
      [Cache], [Pool_stale] and busy [Open_failed] events: no cache
      keeps a counter of its own.

    The record is [private]: code outside this module reads the counters
    but cannot write them, so a registry always equals the fold of the
    events it observed. The {e network} section of {!to_json} is read at
    export time from the {!Netsim.World} per-site ledger.

    {!to_json} renders everything as one self-contained JSON document;
    [bench/main.ml] records it and CI asserts the per-site byte totals
    reproduce the world's global stats. *)

type cache_stats = {
  pool_hits : int;
  pool_misses : int;
  pool_discarded : int;
  pool_conflicts : int;
      (** checkouts refused because the service was at its connection cap
          (only a server's shared capped pool produces these) *)
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
}
(** Hit/miss counters of the session performance layer (connection pool,
    plan cache, shipped-result cache): the registry's cache block,
    re-exported by {!Msession.cache_stats}. *)

type t = private {
  mutable statements : int;
  mutable plans_replicated : int;
  mutable plans_global : int;
  mutable plans_transfer : int;
  mutable plans_mtx : int;
  mutable subqueries_shipped : int;
  mutable semijoins_applied : int;
  mutable semijoins_declined : int;
  mutable explains : int;
  mutable engine_runs : int;
  mutable engine_errors : int;
  mutable engine_virtual_ms : float;
  mutable retries : int;
  mutable decisions_commit : int;
  mutable decisions_abort : int;
  mutable recovered : int;
  mutable in_doubt : int;
  mutable vital_splits : int;
  mutable snapshots : int;  (** MVCC snapshots acquired by local txns *)
  mutable ww_conflicts : int;
      (** first-committer-wins write-write races lost at the sites *)
  mutable conflict_retries : int;
      (** retries whose reason was a write-write conflict *)
  mutable conflict_aborts : int;
      (** tasks terminally aborted by a write-write conflict *)
  mutable moves : int;
  mutable moved_rows : int;
  mutable moved_bytes : int;
  mutable moves_reduced : int;
  mutable dataflow_nodes : int;
      (** DAG nodes analyzed by the dataflow scheduler's planning pass *)
  mutable dataflow_edges : int;  (** dependency edges (transitively reduced) *)
  mutable dataflow_waves_planned : int;
      (** multi-statement waves the pass formed *)
  mutable dataflow_critical_len : int;
      (** longest dependency chain seen in any scheduled program *)
  mutable dataflow_waves : int;  (** multi-branch waves executed *)
  mutable dataflow_wave_branches : int;
  mutable dataflow_crit_ms : float;
      (** summed per-wave critical paths (max branch duration), in
          virtual time; never exceeds
          [dataflow_serial_ms], the summed branch durations *)
  mutable dataflow_serial_ms : float;
  mutable site_retries : int Map.Make(String).t;
      (** site name -> retry count *)
  mutable caches : cache_stats;
      (** the cache block; [caches.result_hits] is also exported as the
          engine's cache-served MOVE count *)
}

val create : unit -> t
val observe : t -> Narada.Trace.event -> unit
(** Fold one typed trace event into the registry. Events carrying no
    metric dimension (statuses, branches, opens, notes) are ignored. *)

val to_json : t -> world:Netsim.World.t -> string
(** Render the registry plus live network state as a JSON document. The
    [sites] array mirrors {!Netsim.World.per_site} (delivered traffic
    only), so summing its [sent_bytes] reproduces the global
    [network.bytes_moved] exactly. *)
