(* The closed loops that drive a workload: warm-up, GC fence, the timed
   phase and the correctness checks. The statement executor (one
   [Msession.exec] call, or the layer-by-layer replay of the traced
   binary) and the server round are passed in, so the traced and the
   untraced runs share every input, stop rule and check. *)

open Harness
module W = Workloads
module M = Msql.Msession
module Srv = Msql.Server

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* first few failures and mismatches *)
  lat : Fbuf.t;  (* wall ms per timed statement *)
  ends : Fbuf.t;
      (* completion times, s since the timed phase began, not counting
         the time the benchmark spent checking results and probing the
         host *)
  mutable span : float;  (* s the timed phase lasted, on the clock of [ends] *)
  host : Host.t;  (* probes of the host's speed, on the clock of [ends] *)
  (* the deterministic window: the first [det_n] timed statements *)
  mutable det_count : int;
  mutable det_virt_ms : float;
  mutable det_bytes : int;
  mutable det_msgs : int;
  mutable det_alloc : float;  (* words, checks not counted *)
  mutable heap_mb : float;
      (* peak major heap when the timed phase ended: one set-up, the
         warm-up and the timed phase, before the oracles and the set-up
         timing allocate *)
  mutable det_div : int;
      (* statements completed when traffic and allocation were read: the
         server completes a whole round at a time, so it can exceed
         [det_count] *)
  mutable run_digest : string;  (* over the window's hashed results *)
  mutable log : (W.stmt * string) list;
      (* statements kept for a check after the run, with their result
         digest, newest first *)
  mutable bag : int;
      (* order-independent hash of every (statement, result) pair: a sum,
         so the server's interleaving does not change it *)
}

let fresh () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    lat = Fbuf.create ();
    ends = Fbuf.create ();
    span = 0.0;
    host = Host.create ();
    det_count = 0;
    det_virt_ms = 0.0;
    det_bytes = 0;
    det_msgs = 0;
    det_alloc = 0.0;
    heap_mb = 0.0;
    det_div = 0;
    run_digest = "";
    log = [];
    bag = 0;
  }

let bag_item (st : W.stmt) d =
  Int64.to_int (String.get_int64_le (Digest.string (st.W.sql ^ d)) 0)

let note_error r msg =
  if List.length r.errors < 10 then r.errors <- msg :: r.errors

let correct r = r.failed = 0 && r.errors = []

(* ---- set-up ---------------------------------------------------------------- *)

(* Set-up time: single set-ups, repeated until at least 20 have run and
   two seconds have passed, with the host probed between them; the
   median per slice, scaled to reference speed, then the median over the
   slices. A paper_2pc federation builds in about 10 us, so that is a
   couple of hundred thousand samples, and the median ignores those a GC
   slice hit. It runs after the timed phase and its checks, so the
   garbage of these builds cannot set the heap peak the workload reports.
   Returns the scaled and the unscaled figure. *)
let setup_time make =
  gc_fence ();
  let host = Host.create () in
  let at = Fbuf.create () and times = Fbuf.create () in
  let start = now () in
  while Fbuf.length times < 20 || now () -. start < 2.0 do
    let t0 = now () in
    ignore (Sys.opaque_identity (make ()));
    let t1 = now () in
    Fbuf.push at (t1 -. start);
    Fbuf.push times (t1 -. t0);
    Host.tick host ~at:(t1 -. start)
  done;
  let s = slices host ~span:(now () -. start) in
  ( slice_median_percentile s at times 50.,
    slice_median_percentile (unscaled s) at times 50. )

(* ---- checks --------------------------------------------------------------- *)

let check_expected (w : W.t) r (st : W.stmt) d =
  match List.assoc_opt st.W.tag w.W.expected with
  | Some e when String.equal e d -> ()
  | Some e ->
      note_error r
        (Printf.sprintf "%s: result digest %s, expected %s" st.W.tag d e)
  | None -> ()

let check_class r (st : W.stmt) res =
  if not (W.class_ok st res) then begin
    r.failed <- r.failed + 1;
    note_error r
      (Printf.sprintf "%s: unexpected outcome: %s" st.W.tag
         (match res with
         | Ok x -> M.result_to_string x
         | Error m -> "error: " ^ m))
  end

(* ---- single session ------------------------------------------------------- *)

type budget = Seconds of float | Stmts of int

let budget_of (a : args) =
  match a.stmts with Some n -> Stmts n | None -> Seconds a.seconds

let window (w : W.t) = function Stmts n -> min n w.W.det_n | Seconds _ -> w.W.det_n

let world_counts world =
  let s = Netsim.World.stats world in
  (s.Netsim.World.bytes_moved, s.Netsim.World.messages)

(* [exec] runs one statement on the session and returns its result;
   the loop times it. Every result is checked and hashed, and the host
   is probed; the time and allocation that takes ([check_s], [check_w])
   are left out of the timed phase's figures. Units are never split, so
   the federation is in its initial state whenever the loop stops. A workload with an oracle
   logs every 20th statement with its digest for [check_oracle]: nearly
   every join_large statement is new. *)
let run_single ~exec ?(on_timed_start = ignore) (w : W.t) (fx : Msql.Fixtures.t)
    budget ~seed =
  let keep i = w.W.oracle && i mod 20 = 0 in
  let r = fresh () in
  let session = fx.Msql.Fixtures.session and world = fx.Msql.Fixtures.world in
  let next = w.W.stream (Random.State.make [| seed |]) in
  let det_n = window w budget in
  let t0 = ref 0.0 and check_s = ref 0.0 and check_w = ref 0.0 in
  let one ~timed (st : W.stmt) =
    let t1 = now () in
    let res = exec session st in
    let t2 = now () in
    let a2 = alloc_words () in
    let i = r.attempted in
    r.attempted <- i + 1;
    check_class r st res;
    let d = W.result_digest res in
    check_expected w r st d;
    if keep i then r.log <- (st, d) :: r.log;
    if timed then begin
      Fbuf.push r.lat ((t2 -. t1) *. 1000.);
      Fbuf.push r.ends (t2 -. !t0 -. !check_s);
      if r.det_count < det_n then begin
        r.det_count <- r.det_count + 1;
        (match M.last_engine_outcome session with
        | Some o -> r.det_virt_ms <- r.det_virt_ms +. o.Narada.Engine.elapsed_ms
        | None -> ());
        r.run_digest <- W.digest (r.run_digest ^ d)
      end
    end;
    if timed then Host.tick r.host ~at:(t2 -. !t0 -. !check_s);
    check_w := !check_w +. (alloc_words () -. a2);
    check_s := !check_s +. (now () -. t2)
  in
  (* warm-up: whole units, untimed *)
  let n = ref 0 in
  while !n < w.W.warmup do
    List.iter (fun st -> one ~timed:false st; incr n) (next ())
  done;
  gc_fence ();
  on_timed_start ();
  let bytes0, msgs0 = world_counts world in
  check_s := 0.0;
  check_w := 0.0;
  let alloc0 = alloc_words () in
  t0 := now ();
  let timed = ref 0 in
  let finished () =
    match budget with
    | Stmts k -> !timed >= k
    | Seconds s -> !timed >= det_n && now () -. !t0 >= s
  in
  while not (finished ()) do
    List.iter
      (fun st ->
        one ~timed:true st;
        incr timed;
        if !timed = det_n then begin
          r.det_alloc <- alloc_words () -. alloc0 -. !check_w;
          r.det_div <- det_n;
          let b, m = world_counts world in
          r.det_bytes <- b - bytes0;
          r.det_msgs <- m - msgs0
        end)
      (next ())
  done;
  r.span <- now () -. !t0 -. !check_s;
  r.heap_mb <- heap_peak_mb ();
  (match w.W.state with
  | Some e ->
      let d = W.state_digest fx.Msql.Fixtures.directory in
      if not (String.equal d e) then
        note_error r (Printf.sprintf "final state digest %s, expected %s" d e)
  | None -> ());
  r

(* each logged result must match the same join on one database *)
let check_oracle (w : W.t) r directory =
  if w.W.oracle then begin
    let db = W.join_oracle directory in
    List.iter
      (fun ((st : W.stmt), d) ->
        let e = W.oracle_digest db st in
        if not (String.equal d e) then
          note_error r (Printf.sprintf "%s: result digest %s, oracle %s" st.W.tag d e))
      (List.rev r.log)
  end

(* ---- server ---------------------------------------------------------------- *)

(* Eight closed-loop clients with queue depth 1: a client submits its
   next statement only after the previous one completed. [step] runs one
   scheduler round. Returns the run and how many statements each client
   completed. *)
let run_server ~step ?(on_timed_start = ignore) (w : W.t) (srv, _directory, sids)
    budget ~seed =
  let r = fresh () in
  let world = Srv.world srv in
  let det_n = window w budget in
  let n = Array.length sids in
  let nexts = Array.init n (fun i -> w.W.stream (Random.State.make [| seed; i |])) in
  let counts = Array.make n 0 in
  (* no read sees a write, so a template returns the same rows every
     time: the first result per template goes to the log for the oracle,
     later ones must equal it *)
  let first = Hashtbl.create 32 in
  let inflight = Array.make n None in
  let index_of sid =
    let rec go i = if sids.(i) = sid then i else go (i + 1) in
    go 0
  in
  let completed = ref 0 in
  let timed = ref false in
  let t0 = ref 0.0 and check_s = ref 0.0 and check_w = ref 0.0 in
  let bytes0 = ref 0 and msgs0 = ref 0 and alloc0 = ref 0.0 in
  let submit_all () =
    Array.iteri
      (fun i sid ->
        if inflight.(i) = None then
          match nexts.(i) () with
          | [ st ] -> (
              match Srv.submit srv sid st.W.sql with
              | Ok _ -> inflight.(i) <- Some (st, now ())
              | Error e ->
                  r.attempted <- r.attempted + 1;
                  r.failed <- r.failed + 1;
                  note_error r ("submit refused: " ^ Srv.error_message e))
          | _ -> invalid_arg "server streams hand out single statements")
      sids
  in
  (* as in [run_single], checking the completions and probing the host
     are left out of the timed phase's figures, and out of the latency of
     a statement still in flight *)
  let round () =
    let comps = step srv in
    let t = now () in
    let a = alloc_words () in
    List.iter
      (fun (c : Srv.completion) ->
        let i = index_of c.Srv.c_sid in
        match inflight.(i) with
        | None -> note_error r "completion without a submitted statement"
        | Some (st, ts) ->
            inflight.(i) <- None;
            counts.(i) <- counts.(i) + 1;
            r.attempted <- r.attempted + 1;
            check_class r st c.Srv.c_result;
            let d = W.result_digest c.Srv.c_result in
            r.bag <- r.bag + bag_item st d;
            if st.W.cls = W.Read then begin
              match Hashtbl.find_opt first st.W.tag with
              | None ->
                  Hashtbl.add first st.W.tag d;
                  r.log <- (st, d) :: r.log
              | Some d0 ->
                  if not (String.equal d d0) then
                    note_error r (st.W.tag ^ ": result changed between executions")
            end;
            if !timed then begin
              incr completed;
              Fbuf.push r.lat ((t -. ts) *. 1000.);
              Fbuf.push r.ends (t -. !t0 -. !check_s);
              if r.det_count < det_n then begin
                r.det_count <- r.det_count + 1;
                (match Option.bind (Srv.session srv c.Srv.c_sid) M.last_engine_outcome with
                | Some o ->
                    r.det_virt_ms <- r.det_virt_ms +. o.Narada.Engine.elapsed_ms
                | None -> ());
                r.run_digest <- W.digest (r.run_digest ^ d)
              end
            end)
      comps;
    if !timed && r.det_count = det_n && r.det_div = 0 then begin
      r.det_alloc <- a -. !alloc0 -. !check_w;
      r.det_div <- !completed;
      let b, m = world_counts world in
      r.det_bytes <- b - !bytes0;
      r.det_msgs <- m - !msgs0
    end;
    if !timed then Host.tick r.host ~at:(t -. !t0 -. !check_s);
    check_w := !check_w +. (alloc_words () -. a);
    let own = now () -. t in
    check_s := !check_s +. own;
    Array.iteri
      (fun i -> function
        | Some (st, ts) -> inflight.(i) <- Some (st, ts +. own)
        | None -> ())
      inflight
  in
  let busy () = Array.exists Option.is_some inflight in
  (* warm-up, then let every client's statement finish before the fence *)
  while r.attempted < w.W.warmup do
    submit_all ();
    round ()
  done;
  while busy () do round () done;
  gc_fence ();
  on_timed_start ();
  let b, m = world_counts world in
  bytes0 := b;
  msgs0 := m;
  check_s := 0.0;
  check_w := 0.0;
  alloc0 := alloc_words ();
  t0 := now ();
  timed := true;
  let finished () =
    match budget with
    | Stmts k -> !completed >= k
    | Seconds s -> !completed >= det_n && now () -. !t0 >= s
  in
  while not (finished ()) do
    submit_all ();
    round ()
  done;
  while busy () do round () done;
  r.span <- now () -. !t0 -. !check_s;
  r.heap_mb <- heap_peak_mb ();
  (r, counts)

(* Serial replay on [fx], a fresh single session over the same data:
   client i's statements are regenerated from its seed and run in order,
   client after client. No read sees a write (see [Workloads.hub_world]),
   so the server's interleaving cannot change an answer: the replay must
   reproduce the same bag of (statement, result) pairs and the same
   final state. *)
let check_replay ~exec (w : W.t) r ~seed ~counts ~server_directory
    (fx : Msql.Fixtures.t) =
  let bag = ref 0 in
  Array.iteri
    (fun i n ->
      let next = w.W.stream (Random.State.make [| seed; i |]) in
      for _ = 1 to n do
        List.iter
          (fun st ->
            let d = W.result_digest (exec fx.Msql.Fixtures.session st) in
            bag := !bag + bag_item st d)
          (next ())
      done)
    counts;
  if !bag <> r.bag then
    note_error r "server results differ from the serial replay";
  let s = W.state_digest server_directory
  and s' = W.state_digest fx.Msql.Fixtures.directory in
  if not (String.equal s s') then
    note_error r (Printf.sprintf "server final state %s, serial replay %s" s s')

(* ---- report ---------------------------------------------------------------- *)

(* Print the human-readable report and the contract line, write the full
   record to [--out], and exit nonzero if any check failed. [unscaled]
   holds the wall-clock metrics as the clock read them, before scaling to
   the reference speed. *)
let report (a : args) (w : W.t) ~traced ?(unscaled = []) (r : run) ms =
  let lat = Fbuf.sorted r.lat in
  Printf.printf "workload %s  seed %d  %s\n" w.W.name a.seed
    (if traced then "traced" else "untraced");
  Printf.printf "  %d statements timed over %.2f s (%d attempted in all)\n"
    (Fbuf.length r.lat) r.span r.attempted;
  (match tail_percentile lat with
  | Some (p, v) ->
      Printf.printf "  latency tail supported by the sample: p%g = %.4f ms\n" p v
  | None -> ());
  Printf.printf "  deterministic window: %d statements, digest %s\n" r.det_count
    r.run_digest;
  print_metrics ms;
  if unscaled <> [] then begin
    Printf.printf "  unscaled (host at %.0f%% of reference speed):\n"
      (100. *. median_of (Array.to_list (slices r.host ~span:r.span).scale));
    print_metrics unscaled
  end;
  let ok = correct r in
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) (List.rev r.errors);
  Printf.printf "  correctness: %s\n" (if ok then "ok" else "FAILED");
  (match a.out with
  | Some path ->
      write_file path
        (to_string
           (Obj
              [
                ("workload", Str w.W.name);
                ("seed", Int a.seed);
                ("traced", Bool traced);
                ("seconds", Num a.seconds);
                ("env", environment ());
                ("correct", Bool ok);
                ("attempted", Int r.attempted);
                ("failed", Int r.failed);
                ("timed_stmts", Int (Fbuf.length r.lat));
                ("window_stmts", Int r.det_count);
                ("window_digest", Str r.run_digest);
                ("metrics", metrics_json ms);
                ("unscaled", metrics_json unscaled);
              ]))
  | None -> ());
  print_endline (result_line ~correct:ok ~attempted:r.attempted ~failed:r.failed ms);
  exit (if ok then 0 else 1)

let find_workload (a : args) =
  match W.find a.workload with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" a.workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
