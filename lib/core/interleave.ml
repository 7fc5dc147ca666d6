(* Deterministic interleaving harness: several sessions' statements
   stepped against shared sites under a scripted or seeded schedule.
   Everything runs sequentially over one shared world, each participant
   on its own virtual clock, so a given (participants, schedule) pair
   always produces the same interleaving — anomaly scenarios in the test
   suites are exact replays, never races. *)

type participant = {
  label : string;
  session : Msession.t;
  sql : string;
}

type schedule =
  | Round_robin
  | Script of string list
  | Seeded of int

type outcome = (string * (Msession.result, string) result) list

module World = Netsim.World

type slot = {
  s_label : string;
  s_prep : (Msession.prepared, string) result;
  mutable s_live : bool;  (* still has DOL statements to step *)
  mutable s_clock : float;  (* where its last step (or epilogue) stopped *)
}

let canon = String.lowercase_ascii

(* Every participant is its own thread of control in virtual time: its
   steps and its epilogue run in a clock frame resumed where its previous
   one stopped, so its elapsed time is its own work, not everyone's. *)
let on_clock world s f =
  let r, clock = World.in_frame world ~start_ms:s.s_clock f in
  s.s_clock <- clock;
  r

(* step the slot once; [false] when it had nothing left *)
let step_slot world s =
  match s.s_prep with
  | Ok prep when s.s_live ->
      s.s_live <- on_clock world s (fun () -> Msession.step prep);
      s.s_live
  | Ok _ | Error _ -> false

(* cycle in list order, one statement each, until every program is
   exhausted; a program is not stepped again once its step returns
   [false] *)
let rec drain_round_robin world slots =
  match List.filter (step_slot world) slots with
  | [] -> ()
  | live -> drain_round_robin world live

let run_script world slots script =
  List.iter
    (fun label ->
      match
        List.find_opt (fun s -> String.equal (canon s.s_label) (canon label)) slots
      with
      | None -> invalid_arg (Printf.sprintf "Interleave: unknown label %s" label)
      | Some s -> ignore (step_slot world s))
    script

(* a tiny deterministic LCG; quality does not matter, stability does *)
let run_seeded world slots seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let rec go () =
    match List.filter (fun s -> s.s_live) slots with
    | [] -> ()
    | alive ->
        let s = List.nth alive (next (List.length alive)) in
        ignore (step_slot world s);
        go ()
  in
  go ()

(* Every participant starts at the world clock. Whatever the schedule
   left unstepped completes round-robin, so a script only needs to pin
   the contended prefix. The epilogues (in-doubt resolution, split
   settlement, connection release, interpretation, triggers) run in
   declaration order, exactly as each participant's own [exec] would end;
   then the world clock advances to the latest finish. *)
let play world ~schedule labelled =
  let t0 = World.now_ms world in
  let slots =
    List.map
      (fun (label, prep) ->
        { s_label = label; s_prep = prep; s_live = Result.is_ok prep; s_clock = t0 })
      labelled
  in
  (match schedule with
  | Round_robin -> ()
  | Script script -> run_script world slots script
  | Seeded seed -> run_seeded world slots seed);
  drain_round_robin world slots;
  let outcome =
    List.map
      (fun s ->
        ( s.s_label,
          Result.bind s.s_prep (fun prep ->
              on_clock world s (fun () -> Msession.finish prep)) ))
      slots
  in
  World.advance_ms world
    (List.fold_left (fun latest s -> max latest s.s_clock) t0 slots -. t0);
  outcome

let round_robin world preps =
  List.map snd
    (play world ~schedule:Round_robin (List.map (fun p -> ("", Ok p)) preps))

let run ~schedule participants =
  match participants with
  | [] -> []
  | p0 :: _ ->
      play (Msession.world p0.session) ~schedule
        (List.map
           (fun p -> (p.label, Msession.prepare_text p.session p.sql))
           participants)

let result_of outcome label =
  match
    List.find_opt (fun (l, _) -> String.equal (canon l) (canon label)) outcome
  with
  | Some (_, r) -> r
  | None -> Error (Printf.sprintf "no participant labelled %s" label)
