(** The simulated distributed environment: a set of sites, a virtual clock
    and message accounting.

    Everything runs in one OS process; "remote" execution means charging
    this clock. {!parallel} models concurrent task execution: each branch
    starts from the same virtual instant and the clock ends at the latest
    branch finish — the quantity the paper says loosely coupled execution
    should optimize (§4.3, §5).

    Failures come in two flavours, both deterministic:
    - {e outages}: windows of virtual time during which a site is
      unreachable ({!Site_down}); recovery is implicit once the clock
      passes the window's end, so transient failures need no callback.
    - {e message loss}: individual messages dropped on a link
      ({!Lost_message}), either queued one-shot or drawn from a seeded
      PRNG, so chaos runs replay identically for the same seed. *)

type t

exception Unknown_site of string

exception Site_down of string
(** The named site is inside an outage window: nothing was delivered and
    the destination did no work. *)

exception Lost_message of string * string
(** [Lost_message (src, dst)]: both sites are up but this particular
    message vanished in transit. Unlike {!Site_down} the sender cannot
    distinguish a slow reply from a lost one except by timeout — retry
    policies treat both as transient. *)

type stats = {
  mutable messages : int;   (** messages delivered *)
  mutable bytes_moved : int;
  mutable lost : int;       (** messages dropped by loss injection *)
}

type site_stat = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
}
(** Per-site view of delivered traffic. Lost messages are charged to
    neither side (mirroring {!stats}, which counts delivered messages
    only), so summing [sent_msgs]/[sent_bytes] over all sites reproduces
    [stats.messages]/[stats.bytes_moved] exactly. *)

val create : unit -> t
(** Contains one built-in site ["mdbs"] (latency 0): the multidatabase
    engine's own node. *)

val add_site : t -> Site.t -> unit
val find_site : t -> string -> Site.t

val now_ms : t -> float
(** The current virtual time {e as seen by the calling branch}: inside a
    clock frame (see {!parallel}) this is the frame's private
    clock; outside any frame it is the world's global clock. *)

val advance_ms : t -> float -> unit
(** Advance the caller's clock (frame clock inside a frame, global clock
    otherwise). *)

val reset_clock : t -> unit
val stats : t -> stats
val reset_stats : t -> unit
(** Also clears the per-site ledger. *)

val per_site : t -> (string * site_stat) list
(** Per-site traffic counters for every site that has sent or received at
    least one delivered message, sorted by (lowercased) site name. *)

val set_down : t -> string -> bool -> unit
(** [set_down t name true] marks the site permanently unreachable
    (replacing any scheduled outages); [false] clears all outages. *)

val set_down_until : t -> string -> float -> unit
(** [set_down_until t name until_ms] starts a transient outage now; the
    site recovers automatically when the virtual clock reaches
    [until_ms]. *)

val schedule_outage : t -> string -> from_ms:float -> until_ms:float -> unit
(** Schedule an outage window at absolute virtual times, e.g. to take a
    site down between a future prepare and commit. Windows may overlap. *)

val is_down : t -> string -> bool
(** Whether the site is inside an outage window at the current virtual
    time. *)

val down_during : t -> string -> since_ms:float -> bool
(** Whether the site was inside an outage window at any virtual instant in
    [[since_ms, now]] — including windows that have since expired or been
    cleared with {!set_down}[ false]. This is the staleness test a
    connection pool needs: a session checked in at [since_ms] whose site
    went down (and possibly recovered) in between is broken even though
    the site answers now. Conservative at the boundary: an outage ending
    exactly at [since_ms] counts. History is forgotten by {!reset_clock}
    (a new timeline). *)

val next_recovery_ms : t -> string -> float option
(** If the site is currently down, the virtual time at which it recovers
    ([Some infinity] for a permanent outage); [None] if it is up. *)

val set_loss : t -> seed:int -> prob:float -> unit
(** Drop every message with probability [prob], drawn from a private PRNG
    seeded with [seed]. [prob <= 0] clears the loss. *)

val lose_next : t -> src:string -> dst:string -> unit
(** Queue a one-shot loss: the next message on [src -> dst] vanishes.
    Multiple calls stack. Takes precedence over probabilistic loss and
    consumes no PRNG draw, so deterministic tests stay deterministic. *)

val send : t -> src:string -> dst:string -> bytes:int -> unit
(** Charge one message from [src] to [dst]: advances the caller's clock by
    both sites' message costs and updates the statistics. A MOVE's data
    shipment is one such message. Raises
    {!Unknown_site}, {!Site_down} or {!Lost_message}; a lost message
    charges the sender's cost only and counts in [stats.lost]. *)

val in_frame : t -> start_ms:float -> (unit -> 'a) -> 'a * float
(** Run the thunk in a fresh clock frame starting at [start_ms]; its
    result and the frame's clock at its end. The caller's clock does not
    move. {!parallel} runs each branch this way. *)

val parallel : t -> (unit -> 'a) list -> 'a list
(** Run the thunks as logically concurrent branches: each runs in its own
    clock frame starting at the current virtual time; afterwards the
    clock is the maximum finish time. Results are returned in order. The
    thunks execute one after another. Blocks nest: a block inside a
    branch forks from that branch's clock. Each world keeps its own frame
    stack, so a branch may advance a world other than the one whose block
    it runs in. A branch that raises still leaves its frame. *)

val parallel_timed : t -> (unit -> 'a) list -> 'a list * float list
(** {!parallel}, additionally returning each branch's virtual duration
    (finish minus the block's start), in thunk order — the per-wave
    accounting (critical path = max, serial estimate = sum) the dataflow
    scheduler records. *)
