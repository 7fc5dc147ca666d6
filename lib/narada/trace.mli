(** Typed trace events emitted by the engine, the connection pool, the
    LAM layer and the MSQL session, timestamped with the virtual clock.

    The engine has one sink, [Engine.run ~on_trace]; the pool reports
    through the sink of the checkout that consulted it, and the session
    sends its own events (statement admission, plan uses, EXPLAINs, cache
    consultations) down the same stream. Textual consumers (the shell's
    [--trace]) print {!render} of each event; structured consumers (the
    [Msql.Metrics] registry) match on {!kind} instead of parsing. Every
    registry counter is a fold of this stream. *)

type verdict = Commit | Abort

type layer =
  | Pool  (** the LAM connection pool, consulted at each pooled OPEN *)
  | Plan  (** the session's plan cache, consulted once per planned statement *)
  | Result  (** the shipped-result cache, consulted at each cached MOVE *)

(** The shape of a planned statement (§4.3): a multiple query or update
    whose elementary queries each stay in one database, a decomposed
    global join, a global [INSERT ... SELECT] transfer, or a
    multitransaction. *)
type shape = Replicated | Global | Transfer | Multitransaction

type kind =
  | Opened of { service : string; site : string; alias : string; pooled : bool }
      (** OPEN established a session; [pooled] when it was an idle pool
          connection rather than a fresh dial. *)
  | Open_failed of { service : string; reason : string; busy : bool }
      (** OPEN could not establish a session; [busy] when the pool
          refused the checkout at its connection cap. *)
  | Closed of { alias : string }
      (** The session behind [alias] was released — by CLOSE or by the
          end-of-program epilogue. *)
  | Status of { task : string; status : Dol_ast.status }
      (** A task status transition (the [t1 -> P] lines). *)
  | Branch of { cond : string; taken : bool }  (** An IF was evaluated. *)
  | Moved of {
      mname : string;
      src : string;
      dst : string;
      dest_table : string;
      rows : int;
      bytes : int;  (** payload bytes shipped; [0] on a cache hit *)
      reduced : bool;  (** the semijoin rewrite restricted the query *)
      cached : bool;  (** served from the shipped-result cache *)
    }  (** A MOVE completed. *)
  | Chunk of {
      mname : string;
      src : string;
      dst : string;
      seq : int;  (** 1-based position in the stream *)
      total : int;  (** chunks in the stream *)
      rows : int;
      bytes : int;  (** this installment's payload *)
      window : int;  (** the sender's in-flight credit window *)
    }
      (** Never emitted: a MOVE ships as one message and reports only
          {!Moved}. Kept only because [msqlbench/msql_trace.ml] matches
          it; it goes with that benchmark's next change. *)
  | Retry of {
      op : string;
      site : string;
      attempt : int;
      delay_ms : float;
      reason : string;
      conflict : bool;  (** the retried failure was a write-write conflict *)
    }  (** A retried operation, as observed via [Lam]'s retry callback. *)
  | Decision of { verdict : verdict; tasks : string list }
      (** The coordinator logged its global 2PC verdict over the prepared
          tasks, before driving the second phase. *)
  | Recovered of { task : string; site : string; verdict : verdict }
      (** An in-doubt transaction was driven to its logged verdict. *)
  | Pool_stale of { service : string; site : string }
      (** A checkout discarded an idle pooled connection that went stale. *)
  | Cache of { layer : layer; hit : bool; key : string }
      (** A cache consultation, emitted by the layer that consulted the
          cache as it did so. [key] is the service for {!Pool}, the
          statement kind for {!Plan} and the shipped query for
          {!Result}. *)
  | Snapshot of { site : string; ts : int }
      (** A local transaction began and acquired an MVCC snapshot at the
          site ([ts] is the site-local commit timestamp it reads at). *)
  | Conflict of { site : string; table : string; op : string }
      (** A local transaction lost a first-committer-wins write-write race
          on [table]; [op] is where the race was detected (["write"],
          ["prepare"] or ["commit"]). The victim was rolled back. *)
  | Conflict_abort of { task : string; site : string }
      (** A task aborted terminally because of a write-write conflict (its
          retries, if any, were exhausted). *)
  | Wave of {
      branches : int;
      crit_ms : float;  (** slowest branch: the wave's critical path *)
      serial_ms : float;
          (** sum of branch durations: what serial execution would cost *)
    }
      (** A [PARBEGIN] block of two or more branches joined. Durations are
          virtual and derived from each branch's clock frame. *)
  | Dolstatus of int
  | Note of string
      (** Free-form diagnostics that have no structured shape (recovery
          narration, split settlement, ...). *)
  | Statement
      (** The session admitted a statement ([Msession.prepare]), whether
          or not it then plans. *)
  | Explained  (** An EXPLAIN or EXPLAIN MULTIPLE completed. *)
  | Planned of {
      shape : shape;
      shipped : int;  (** subqueries the decomposition shipped *)
      reduced : int;  (** of those, semijoin-reduced *)
      declined : int;  (** of those, whose semijoin gate declined *)
      dag : Dol_graph.stats option;
          (** the dataflow pass's DAG stats; [None] when the pass is off *)
    }
      (** The session used a plan: told on every use, whether the plan
          cache hit or the statement was planned afresh. *)
  | Run_ended of { elapsed_ms : float; in_doubt : int; vital_split : bool }
      (** The engine finished a program: its epilogue ran, [elapsed_ms] of
          virtual time after the run started, with [in_doubt] tasks still
          stranded and [vital_split] when a commit group ended split. *)
  | Run_failed of string
      (** The engine finished a malformed program (the [Error] of
          [Engine.finish]) after its release epilogue. *)

type event = {
  at_ms : float;
  kind : kind;
  tag : string option;
      (** Attribution label, e.g. the server's session id. [None] for
          every event emitted by a bare session — the field exists so a
          multi-session consumer (the MSQL server) can stamp each event
          with the session that produced it before the streams merge.
          {!render} ignores it, keeping the historical text stable. *)
}

val make : ?tag:string -> at_ms:float -> kind -> event

val with_tag : string -> event -> event
(** Stamp the tag unless one is already present (first writer wins: an
    event attributed by an inner layer keeps its attribution). *)

val verdict_to_string : verdict -> string

val render_kind : kind -> string
(** The message text without the timestamp prefix. *)

val render : event -> string
(** The full historical line: [Printf.sprintf "[%8.2f ms] %s"]. *)
