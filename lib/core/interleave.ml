(* Deterministic interleaving harness: several sessions' statements
   stepped against shared sites under a scripted or seeded schedule.
   Everything runs sequentially over one shared virtual-time world, so a
   given (participants, schedule) pair always produces the same
   interleaving — anomaly scenarios in the test suites are exact
   replays, never races. *)

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

type slot = {
  s_label : string;
  s_prep : (Msession.prepared, string) result;
  mutable s_live : bool;  (* still has DOL statements to step *)
}

let canon = String.lowercase_ascii

(* step the slot once; [false] when it had nothing left *)
let step_slot s =
  match s.s_prep with
  | Error _ -> false
  | Ok prep ->
      if not s.s_live then false
      else begin
        let ran = Msession.step prep in
        if not ran then s.s_live <- false;
        ran
      end

let live slots = List.filter (fun s -> s.s_live) slots

(* cycle in list order, one statement each, until every program is
   exhausted; a program is not stepped again once its step returns
   [false] *)
let rec round_robin preps =
  match List.filter Msession.step preps with
  | [] -> ()
  | live -> round_robin live

let drain_round_robin slots =
  round_robin
    (List.filter_map
       (fun s -> if s.s_live then Result.to_option s.s_prep else None)
       slots)

let run_script slots script =
  List.iter
    (fun label ->
      match
        List.find_opt (fun s -> String.equal (canon s.s_label) (canon label)) slots
      with
      | None -> invalid_arg (Printf.sprintf "Interleave: unknown label %s" label)
      | Some s -> ignore (step_slot s))
    script

(* a tiny deterministic LCG; quality does not matter, stability does *)
let run_seeded slots seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let rec go () =
    match live slots with
    | [] -> ()
    | alive ->
        let s = List.nth alive (next (List.length alive)) in
        ignore (step_slot s);
        go ()
  in
  go ()

let run ~schedule participants =
  let slots =
    List.map
      (fun p ->
        let prep = Msession.prepare_text p.session p.sql in
        {
          s_label = p.label;
          s_prep = prep;
          s_live = (match prep with Ok _ -> true | Error _ -> false);
        })
      participants
  in
  (match schedule with
  | Round_robin -> drain_round_robin slots
  | Script script ->
      run_script slots script;
      (* whatever the script left unstepped completes round-robin, so a
         script only needs to pin the contended prefix *)
      drain_round_robin slots
  | Seeded seed -> run_seeded slots seed);
  (* epilogues in declaration order: in-doubt resolution, split
     settlement and connection release happen per participant, exactly as
     its own [run] would have done at the end *)
  List.map
    (fun s ->
      ( s.s_label,
        match s.s_prep with
        | Error m -> Error m
        | Ok prep -> Msession.finish prep ))
    slots

let result_of outcome label =
  match
    List.find_opt (fun (l, _) -> String.equal (canon l) (canon label)) outcome
  with
  | Some (_, r) -> r
  | None -> Error (Printf.sprintf "no participant labelled %s" label)
