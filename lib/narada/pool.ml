module World = Netsim.World

type entry = {
  lam : Lam.t;
  since_ms : float;  (* virtual checkin instant, for staleness tests *)
}

type t = {
  world : World.t;
  conns : (string, entry list) Hashtbl.t;  (* service key -> idle stack *)
  in_use : (string, int) Hashtbl.t;  (* service key -> checked out *)
  mutable cap : int option;  (* per-service checkout ceiling *)
}

let key = String.lowercase_ascii

let create world =
  {
    world;
    conns = Hashtbl.create 8;
    in_use = Hashtbl.create 8;
    cap = None;
  }

let set_cap t n =
  t.cap <- (match n with Some n when n >= 1 -> Some n | _ -> None)

let cap t = t.cap

let size t = Hashtbl.fold (fun _ es acc -> acc + List.length es) t.conns 0

let checked_out t svc =
  Option.value ~default:0 (Hashtbl.find_opt t.in_use (key svc))

let healthy t e =
  let site = Lam.site e.lam in
  (not (World.is_down t.world site))
  && (not (World.down_during t.world site ~since_ms:e.since_ms))
  && Ldbms.Session.txn_state (Lam.session e.lam) = None

let checkout ?retry ?on_retry ?on_trace t (svc : Service.t) =
  let name = svc.Service.service_name in
  let k = key name in
  let tell kind =
    Option.iter (fun f -> f (Trace.make ~at_ms:(World.now_ms t.world) kind))
      on_trace
  in
  let consulted hit =
    tell (Trace.Cache { layer = Trace.Pool; hit; key = name })
  in
  (* the cap bounds live connections per service across every session
     sharing the pool; a capped-out checkout fails immediately with a
     transient failure — retrying in place cannot succeed while the
     holder's statement is still running under the same schedule, so
     the caller (the server's scheduler) retries the whole statement
     after the holder has checked its connection back in. Execution is
     sequential, so nothing runs between this check and the in-use
     increment below, dial included. *)
  match t.cap with
  | Some cap when checked_out t k >= cap -> Error (Lam.Busy name)
  | Some _ | None ->
      let rec pick () =
        match Hashtbl.find_opt t.conns k with
        | Some (e :: rest) ->
            Hashtbl.replace t.conns k rest;
            if healthy t e then begin
              consulted true;
              Ok (Lam.with_policy ?retry ?on_retry ?on_trace e.lam, true)
            end
            else begin
              tell (Trace.Pool_stale { service = name; site = Lam.site e.lam });
              (* the transport broke while it idled: the LDBMS ends the
                 session itself, and there is no connection left to say
                 goodbye on *)
              Ldbms.Session.close (Lam.session e.lam);
              pick ()
            end
        | Some [] | None ->
            (* the miss is told once the dial is over, so it carries the
               same instant as the OPEN it precedes *)
            let r = Lam.connect ?retry ?on_retry ?on_trace t.world svc in
            consulted false;
            Result.map (fun lam -> (lam, false)) r
      in
      let r = pick () in
      (match r with
      | Ok _ -> Hashtbl.replace t.in_use k (checked_out t k + 1)
      | Error _ -> ());
      r

let checkin t lam =
  let k = key (Lam.service lam).Service.service_name in
  Hashtbl.replace t.in_use k (max 0 (checked_out t k - 1));
  let usable =
    (not (World.is_down t.world (Lam.site lam)))
    && Ldbms.Session.txn_state (Lam.session lam) = None
  in
  if usable then begin
    (* the next user starts clean: closing a session with no transaction
       open only drops its landing tables, and sends nothing *)
    Ldbms.Session.close (Lam.session lam);
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.conns k) in
    Hashtbl.replace t.conns k
      ({ lam; since_ms = World.now_ms t.world } :: prev)
  end
  else
    (* an unreachable site or an open transaction disqualifies the
       session from reuse; Lam.disconnect applies the proper farewell
       semantics (abort active, preserve prepared, skip the goodbye when
       the site is down) *)
    Lam.disconnect lam

let drain t =
  Hashtbl.iter
    (fun _ es -> List.iter (fun e -> Lam.disconnect e.lam) es)
    t.conns;
  Hashtbl.reset t.conns
