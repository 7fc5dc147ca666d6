module World = Netsim.World

type t = {
  max_attempts : int;
  base_backoff_ms : float;
  multiplier : float;
  max_backoff_ms : float;
  jitter : float;
  budget_ms : float;
}

type classification = Retryable | Terminal

let default =
  {
    max_attempts = 4;
    base_backoff_ms = 5.0;
    multiplier = 2.0;
    max_backoff_ms = 80.0;
    jitter = 0.25;
    budget_ms = 250.0;
  }

let none =
  {
    max_attempts = 1;
    base_backoff_ms = 0.0;
    multiplier = 1.0;
    max_backoff_ms = 0.0;
    jitter = 0.0;
    budget_ms = 0.0;
  }

let aggressive =
  {
    max_attempts = 6;
    base_backoff_ms = 5.0;
    multiplier = 2.0;
    max_backoff_ms = 160.0;
    jitter = 0.25;
    budget_ms = 1000.0;
  }

(* Jitter must not depend on wall time or global PRNG state, or chaos runs
   stop replaying; derive it from the operation key and attempt number. *)
let backoff_ms p ~key ~attempt =
  let raw =
    min p.max_backoff_ms
      (p.base_backoff_ms *. (p.multiplier ** float_of_int (attempt - 1)))
  in
  if p.jitter <= 0.0 then raw
  else
    let rng = Random.State.make [| Hashtbl.hash key; attempt; 0x5eed |] in
    let f = 1.0 +. (p.jitter *. ((Random.State.float rng 2.0) -. 1.0)) in
    raw *. f

let run p world ~key ~classify ?(on_retry = fun ~attempt:_ ~delay_ms:_ _ -> ())
    f =
  let t0 = World.now_ms world in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e as err -> (
        match classify e with
        | Terminal -> err
        | Retryable ->
            if attempt >= p.max_attempts then err
            else
              let delay = backoff_ms p ~key ~attempt in
              if World.now_ms world -. t0 +. delay > p.budget_ms then err
              else begin
                (* the backoff wait is virtual time: charged to the clock,
                   never to the wall *)
                World.advance_ms world delay;
                on_retry ~attempt ~delay_ms:delay e;
                go (attempt + 1)
              end)
  in
  go 1
