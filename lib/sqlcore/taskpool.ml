(* A fixed-size pool of OCaml 5 domains executing opaque jobs from a
   shared queue. Hand-rolled on Domain/Mutex/Condition (the toolchain has
   no domainslib): workers block on a condition variable when idle, so a
   parked pool costs nothing but the OS threads.

   This lives at the bottom of the stack (sqlcore) so both the
   multidatabase engine (Narada's PARBEGIN branches, which re-export it as
   [Narada.Dpool]) and the server's parallel waves can draw workers from
   the same mechanism without a layering inversion.

   The submitting domain is itself one of the execution lanes: [run_all]
   enqueues the jobs, then drains the queue alongside the workers and
   finally blocks until its own batch is complete. A pool created with
   [~domains:n] therefore spawns only [n - 1] workers, and [~domains:1]
   degenerates to plain sequential execution with no spawned domain at
   all. Jobs must be self-contained — in particular they must not submit
   to the same pool (the engine's eligibility gate guarantees this by
   refusing nested parallel blocks). *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
  total : int;
}

let size t = t.total

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* closing *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.m;
    job ();
    worker_loop t
  end

let create ~domains =
  let total = max 1 domains in
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [];
      total;
    }
  in
  t.workers <-
    List.init (total - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let run_all t jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
      (* completion is tracked per batch, so concurrent [run_all] calls on
         a shared pool each wait for exactly their own jobs *)
      let done_m = Mutex.create () in
      let done_cv = Condition.create () in
      let pending = ref (List.length jobs) in
      let wrap job () =
        (* jobs are expected to capture their own exceptions (the engine
           records them per branch); a leak here must not strand the
           batch, so completion is signalled unconditionally *)
        (try job () with _ -> ());
        Mutex.lock done_m;
        decr pending;
        if !pending = 0 then Condition.signal done_cv;
        Mutex.unlock done_m
      in
      Mutex.lock t.m;
      List.iter (fun j -> Queue.push (wrap j) t.queue) jobs;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m;
      (* the caller works the queue too: with [domains = n] there are
         exactly n lanes of execution, and a 1-worker pool cannot deadlock
         waiting for itself *)
      let rec help () =
        Mutex.lock t.m;
        if Queue.is_empty t.queue then Mutex.unlock t.m
        else begin
          let job = Queue.pop t.queue in
          Mutex.unlock t.m;
          job ();
          help ()
        end
      in
      help ();
      Mutex.lock done_m;
      while !pending > 0 do
        Condition.wait done_cv done_m
      done;
      Mutex.unlock done_m

let shutdown t =
  Mutex.lock t.m;
  t.closing <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Process-wide shared pools, one per size. Sessions toggle domain
   execution per statement, and tests create many short-lived sessions; a
   pool per session would accumulate OS threads, so everyone asking for
   the same width shares one pool for the life of the process. *)
let shared_m = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  let domains = max 1 domains in
  Mutex.lock shared_m;
  let t =
    match Hashtbl.find_opt shared_pools domains with
    | Some t -> t
    | None ->
        let t = create ~domains in
        Hashtbl.replace shared_pools domains t;
        t
  in
  Mutex.unlock shared_m;
  t
