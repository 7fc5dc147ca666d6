(** A fixed-size OCaml 5 domain pool executing opaque jobs on real cores.

    This is the process's one pooling mechanism: the multidatabase engine
    re-exports it as [Narada.Dpool] for PARBEGIN branch execution, and the
    server runs its parallel waves on it.

    The pool owns [domains - 1] worker domains parked on a condition
    variable; the caller of {!run_all} is the remaining execution lane, so
    [domains] is the true width of the pool and [domains = 1] runs
    everything sequentially on the calling domain with no spawn at all.

    Jobs are opaque thunks. They must not raise (callers wrap each job to
    capture its result or exception), and they must not submit work to the
    same pool: the engine's eligibility gate refuses nested parallel
    blocks. *)

type t

val create : domains:int -> t
(** A private pool of the given width (clamped to at least 1). Spawns
    [domains - 1] worker domains immediately. *)

val shared : domains:int -> t
(** The process-wide pool of the given width, created on first use and
    never shut down. Sessions and tests that merely toggle [?domains]
    share these, so repeated session creation does not accumulate OS
    threads. *)

val size : t -> int
(** The pool's width, counting the calling domain. *)

val run_all : t -> (unit -> unit) list -> unit
(** Execute every job, distributing them over the workers and the calling
    domain, and return when all have finished. Concurrent [run_all] calls
    on a shared pool are safe: each waits for its own batch only. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Only meaningful for pools
    from {!create}; idempotent. Pending jobs submitted before shutdown are
    completed first by the caller draining in {!run_all}. *)
