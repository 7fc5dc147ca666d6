(** Retry with exponential backoff against the virtual clock.

    Transient failures (a site inside an outage window, a lost message, a
    deadlock-victim abort) deserve another attempt; terminal ones (a
    semantic error, a genuine local abort) do not. The policy bounds both
    the number of attempts and the total virtual time an operation may
    consume, and its jitter is a deterministic function of the operation
    key — the same program against the same seeded world always produces
    the same schedule. *)

type t = {
  max_attempts : int;  (** total attempts, including the first *)
  base_backoff_ms : float;  (** delay before the second attempt *)
  multiplier : float;  (** backoff growth per attempt *)
  max_backoff_ms : float;  (** cap on a single delay *)
  jitter : float;  (** +- fraction applied deterministically per key/attempt *)
  budget_ms : float;  (** max virtual time from first attempt to last retry *)
}

type classification = Retryable | Terminal

val default : t
(** 4 attempts, 5 ms base, x2 growth capped at 80 ms, 25% jitter, 250 ms
    budget. *)

val none : t
(** A single attempt: disables retry. *)

val aggressive : t
(** 6 attempts and a 1 s budget, for chaos benchmarking. *)

val backoff_ms : t -> key:string -> attempt:int -> float
(** The (jittered) delay charged before attempt [attempt + 1]. *)

val run :
  t ->
  Netsim.World.t ->
  key:string ->
  classify:('e -> classification) ->
  ?on_retry:(attempt:int -> delay_ms:float -> 'e -> unit) ->
  (unit -> ('a, 'e) result) ->
  ('a, 'e) result
(** [run p world ~key ~classify f] calls [f] until it succeeds, fails
    terminally, exhausts [p.max_attempts], or would exceed [p.budget_ms]
    of virtual time. Each backoff advances [world]'s clock; [on_retry]
    fires once per re-attempt (after the delay is charged) with the
    failure being retried. *)
