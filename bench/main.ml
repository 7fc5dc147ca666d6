(* Benchmark harness: regenerates every experiment in DESIGN.md's index.

   It prints experiment tables (simulated-network latency, message and
   byte counts) for the paper's worked examples E1–E5 and for the
   performance claims P1–P15 (P3, P9 and P11–P13 are retired); all are
   deterministic but P6, which times the local engine alone. The
   perf-critical tables (P4, P10, P14, P15) are also recorded in
   BENCH_perf.json, which holds no wall-clock figure: it is regenerated
   byte for byte. Wall-clock and allocation costs of the pipeline are
   measured end to end, per layer, by msqlbench/ (run.py --trace 1).

   Run with:  dune exec bench/main.exe
   CI smoke:  dune exec bench/main.exe -- --perf-smoke
              (P4/P10/P14/P15) *)

open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module D = Narada.Dol_ast

let line = String.make 72 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* run one MSQL statement on a fresh fixture; report virtual metrics *)
let run_fresh ?caps sql =
  let fx = F.make ?caps () in
  Netsim.World.reset_stats fx.F.world;
  Netsim.World.reset_clock fx.F.world;
  let outcome =
    match M.exec fx.F.session sql with
    | Ok (M.Multitable mt) ->
        Printf.sprintf "multitable (%d parts, %d rows)"
          (List.length (Msql.Multitable.parts mt))
          (Msql.Multitable.total_rows mt)
    | Ok r -> M.result_to_string r |> String.split_on_char '\n' |> List.hd
    | Error m -> "error: " ^ m
  in
  let st = Netsim.World.stats fx.F.world in
  (outcome, Netsim.World.now_ms fx.F.world, st.Netsim.World.messages,
   st.Netsim.World.bytes_moved)

let e1 = {|USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
SELECT %code, type, ~rate FROM car WHERE status = 'available'|}

let e2 = {|USE continental delta united
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}

let e3 = {|USE continental VITAL delta united VITAL
UPDATE flight% SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'|}

let e4 = e3 ^ {|
COMP continental
UPDATE flights SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'|}

let e5 = {|BEGIN MULTITRANSACTION
  USE continental delta
  LET fltab.snu.sstat.clname BE
    f838.seatnu.seatstatus.clientname
    f747.snu.sstat.passname
  UPDATE fltab SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
  UPDATE cartab SET cstat = 'TAKEN', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
COMMIT
  continental AND national
  delta AND avis
END MULTITRANSACTION|}

let paper_examples () =
  header "E1-E5: the paper's worked examples (fresh federation each)";
  Printf.printf "%-28s %-44s %10s %6s %8s\n" "experiment" "outcome"
    "virt ms" "msgs" "bytes";
  let autocommit_cont = [ ("continental", Ldbms.Capabilities.sybase_like) ] in
  let row name ?caps sql =
    let outcome, ms, msgs, bytes = run_fresh ?caps sql in
    Printf.printf "%-28s %-44s %10.2f %6d %8d\n" name outcome ms msgs bytes
  in
  row "E1 multiple SELECT" e1;
  row "E2 multiple update" e2;
  row "E3 vital update (2PC)" e3;
  row "E4 update w/ COMP" ~caps:autocommit_cont e4;
  row "E5 multitransaction" e5

(* ---- P1: parallel vs sequential task execution -------------------------------- *)

(* strip PARBEGIN/PAREND blocks: the sequential baseline *)
let rec sequentialize (p : D.program) : D.program =
  List.concat_map
    (function
      | D.Parallel stmts -> sequentialize stmts
      | D.If (c, a, b) -> [ D.If (c, sequentialize a, sequentialize b) ]
      | s -> [ s ])
    p

let fleet_update n =
  let dbs = List.init n (fun i -> Printf.sprintf "airline%d" (i + 1)) in
  Printf.sprintf
    "USE %s UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'"
    (String.concat " " dbs)

let run_program fx prog =
  Netsim.World.reset_clock fx.F.world;
  Netsim.World.reset_stats fx.F.world;
  match
    Narada.Engine.run ~directory:fx.F.directory ~world:fx.F.world prog
  with
  | Ok o -> (o.Narada.Engine.elapsed_ms, (Netsim.World.stats fx.F.world).Netsim.World.messages)
  | Error m -> failwith m

let p1_parallelism () =
  header
    "P1: parallel vs sequential execution of a multiple update (\xc2\xa74.3/\xc2\xa75 claim)";
  Printf.printf "%-6s %14s %14s %9s\n" "dbs" "parallel ms" "sequential ms" "speedup";
  List.iter
    (fun n ->
      let fx = F.airline_fleet ~n () in
      let prog =
        match M.translate fx.F.session (fleet_update n) with
        | Ok p -> p
        | Error m -> failwith m
      in
      let par_ms, _ = run_program fx prog in
      let fx2 = F.airline_fleet ~n () in
      let seq_ms, _ = run_program fx2 (sequentialize prog) in
      Printf.printf "%-6d %14.2f %14.2f %8.2fx\n" n par_ms seq_ms (seq_ms /. par_ms))
    [ 1; 2; 4; 6; 8; 12 ]

(* ---- P2: cost of the vital set (2PC rounds) ------------------------------------ *)

let p2_vital_overhead () =
  header "P2: 2PC synchronization cost vs vital-set size (\xc2\xa73.2.2)";
  Printf.printf "%-10s %10s %8s\n" "vital dbs" "virt ms" "msgs";
  let n = 6 in
  List.iter
    (fun k ->
      let fx = F.airline_fleet ~n () in
      let dbs =
        List.init n (fun i ->
            let name = Printf.sprintf "airline%d" (i + 1) in
            if i < k then name ^ " VITAL" else name)
      in
      let sql =
        Printf.sprintf
          "USE %s UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'"
          (String.concat " " dbs)
      in
      Netsim.World.reset_clock fx.F.world;
      Netsim.World.reset_stats fx.F.world;
      (match M.exec fx.F.session sql with
      | Ok _ -> ()
      | Error m -> failwith m);
      let st = Netsim.World.stats fx.F.world in
      Printf.printf "%-10d %10.2f %8d\n" k
        (Netsim.World.now_ms fx.F.world)
        st.Netsim.World.messages)
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* ---- P4: data shipping under decomposition vs naive shipping --------------------- *)

let p4_setup rows =
  let world = Netsim.World.create () in
  Netsim.World.add_site world (Netsim.Site.make "w1");
  Netsim.World.add_site world (Netsim.Site.make "w2");
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  let col = Schema.column in
  let wholesale = Ldbms.Database.create "wholesale" in
  Ldbms.Database.load wholesale ~name:"parts"
    [ col "pid" Ty.Int; col ~width:40 "pname" Ty.Str; col "price" Ty.Float;
      col ~width:10 "origin" Ty.Str ]
    (List.init rows (fun i ->
         [| Value.Int i;
            Value.Str (Printf.sprintf "part-%04d-with-a-long-descriptive-name" i);
            Value.Float (float_of_int (i mod 100));
            Value.Str (if i mod 2 = 0 then "domestic" else "imported") |]));
  let retail = Ldbms.Database.create "retail" in
  (* sales reference only a sliver of the catalogue: the realistic skew
     that makes a semijoin worthwhile — most parts are never asked about *)
  Ldbms.Database.load retail ~name:"sales"
    [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int;
      col "comment" Ty.Str ]
    (List.init rows (fun i ->
         [| Value.Int (10000 + i); Value.Int (i mod (max 1 (rows / 16)));
            Value.Int (1 + (i mod 5));
            Value.Str "routine restocking order placed by the branch office" |]));
  Narada.Directory.register directory
    (Narada.Service.make ~site:"w1" ~caps:Ldbms.Capabilities.ingres_like wholesale);
  Narada.Directory.register directory
    (Narada.Service.make ~site:"w2" ~caps:Ldbms.Capabilities.ingres_like retail);
  List.iter
    (fun svc ->
      (match M.incorporate_auto session ~service:svc with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:svc with
      | Ok () -> ()
      | Error m -> failwith m)
    [ "wholesale"; "retail" ];
  (session, world)

let p4_query max_price =
  Printf.sprintf
    {|USE wholesale retail
SELECT s.sid, p.pname, s.qty
FROM retail.sales s, wholesale.parts p
WHERE s.part_id = p.pid AND p.price < %d|}
    max_price

(* naive baseline: ship the whole remote relation, filter at coordinator *)
let p4_naive_program max_price =
  Printf.sprintf
    {|DOLBEGIN
  OPEN retail AT w2 AS retail;
  OPEN wholesale AT w1 AS wholesale;
  MOVE m_wholesale FROM wholesale TO retail TABLE naive_tmp
    { SELECT * FROM parts }
  ENDMOVE;
  TASK t_q FOR retail
    { SELECT s.sid AS sid, naive_tmp.pname AS pname, s.qty AS qty
      FROM sales s, naive_tmp
      WHERE s.part_id = naive_tmp.pid AND naive_tmp.price < %d }
  ENDTASK;
  TASK t_clean FOR retail { DROP TABLE naive_tmp } ENDTASK;
  DOLSTATUS = 0;
  CLOSE retail wholesale;
DOLEND|}
    max_price

type p4_row = {
  sel : int;  (* predicate selectivity, percent *)
  sj_bytes : int;  (* decomposed, semijoin reduction on *)
  sj_ms : float;
  dc_bytes : int;  (* decomposed, reduction off *)
  dc_ms : float;
  na_bytes : int;  (* naive ship-all baseline *)
  na_ms : float;
}

let p4_shipping () =
  header "P4: bytes shipped to the coordinator vs predicate selectivity";
  Printf.printf "%-12s %12s %9s %12s %9s %12s %9s\n" "selectivity"
    "semijoin B" "ms" "decomp B" "ms" "ship-all B" "ms";
  let rows = 200 in
  let decomposed ~semijoin max_price =
    let session, world = p4_setup rows in
    M.set_semijoin session semijoin;
    Netsim.World.reset_stats world;
    Netsim.World.reset_clock world;
    (match M.exec session (p4_query max_price) with
    | Ok _ -> ()
    | Error m -> failwith m);
    ((Netsim.World.stats world).Netsim.World.bytes_moved,
     Netsim.World.now_ms world)
  in
  List.map
    (fun max_price ->
      let sj_bytes, sj_ms = decomposed ~semijoin:true max_price in
      let dc_bytes, dc_ms = decomposed ~semijoin:false max_price in
      let session2, world2 = p4_setup rows in
      Netsim.World.reset_stats world2;
      Netsim.World.reset_clock world2;
      (match
         Narada.Engine.run_text
           ~directory:(M.directory session2)
           ~world:world2
           (p4_naive_program max_price)
       with
      | Ok _ -> ()
      | Error m -> failwith m);
      let na_bytes = (Netsim.World.stats world2).Netsim.World.bytes_moved in
      let na_ms = Netsim.World.now_ms world2 in
      Printf.printf "%-12s %12d %9.2f %12d %9.2f %12d %9.2f\n"
        (Printf.sprintf "%d%%" max_price)
        sj_bytes sj_ms dc_bytes dc_ms na_bytes na_ms;
      { sel = max_price; sj_bytes; sj_ms; dc_bytes; dc_ms; na_bytes; na_ms })
    [ 5; 25; 50; 75; 100 ]

(* Replay an experiment [reps] times on fresh state. The virtual network
   is deterministic, so every replay must equal the first exactly. *)
let replay ~name ~reps run =
  let first = run () in
  for _ = 2 to reps do
    if run () <> first then begin
      Printf.eprintf "%s: nondeterministic replay\n" name;
      exit 1
    end
  done;
  first

(* ---- P10: session reuse layer ablation ------------------------------------ *)

(* A long-lived session executing a Zipf-skewed mix of repeated global
   joins over three sites — the workload the session performance layer is
   built for. Each ablation turns on one more traffic-saving reuse
   mechanism (connection pool, shipped-result cache) and replays the
   exact same statement sequence; the plan cache is always on, so every
   configuration reports its plan hits. Each configuration is replayed on
   fresh sessions, and the replays must agree exactly. *)

type p10_row = {
  p10_config : string;
  p10_virt_ms : float;
  p10_bytes : int;
  p10_msgs : int;
  p10_pool_hits : int;
  p10_plan_hits : int;
  p10_result_hits : int;
}

(* three sites: a small hub of sales orders plus two large catalogues; the
   hub owns the first reference of every query, so it coordinates and the
   big relations are what ships *)
let p10_world ~rows =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let col = Schema.column in
  let catalogue_schema =
    [ col "rid" Ty.Int; col ~width:40 "rname" Ty.Str; col "price" Ty.Float ]
  in
  let catalogue n =
    List.init rows (fun i ->
        [| Value.Int i;
           Value.Str (Printf.sprintf "%s-%05d-with-a-long-catalogue-entry" n i);
           Value.Float (float_of_int ((i * 13) mod 100)) |])
  in
  let hub = Ldbms.Database.create "hub" in
  Ldbms.Database.load hub ~name:"sales"
    [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]
    (List.init (max 8 (rows / 32)) (fun i ->
         [| Value.Int i; Value.Int ((i * 7) mod rows); Value.Int (1 + (i mod 9)) |]));
  let depot = Ldbms.Database.create "depot" in
  Ldbms.Database.load depot ~name:"parts" catalogue_schema (catalogue "part");
  let mill = Ldbms.Database.create "mill" in
  Ldbms.Database.load mill ~name:"supplies" catalogue_schema (catalogue "sup");
  List.iter
    (fun (site, db) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db))
    [ ("h1", hub); ("d2", depot); ("m3", mill) ];
  (world, directory)

let p10_setup ~rows =
  let world, directory = p10_world ~rows in
  let session = M.create ~world ~directory () in
  List.iter
    (fun name ->
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [ "hub"; "depot"; "mill" ];
  (session, world)

(* the statement mix: 20 distinct templates, half against each catalogue,
   drawn Zipf-fashion so a handful of statements dominate the stream *)
let p10_template i =
  let db, table = if i mod 2 = 0 then ("depot", "parts") else ("mill", "supplies") in
  Printf.sprintf
    "USE hub %s SELECT s.sid, r.rname, s.qty FROM hub.sales s, %s.%s r \
     WHERE s.part_id = r.rid AND r.price < %d"
    db db table
    (5 * ((i / 2) + 1))

let p10_mix ~seed ~k ~n =
  let s = 1.1 in
  let weights = Array.init k (fun i -> 1.0 /. ((float_of_int (i + 1)) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cum = Array.make k 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cum.(i) <- !acc)
    weights;
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ ->
      let u = Random.State.float rng 1.0 in
      let rec find i = if i >= k - 1 || cum.(i) >= u then i else find (i + 1) in
      find 0)

let p10_run ~rows ~n ~config ~pool ~result =
  let session, world = p10_setup ~rows in
  M.set_pooling session pool;
  M.set_result_cache session result;
  let mix = p10_mix ~seed:42 ~k:20 ~n in
  Netsim.World.reset_stats world;
  Netsim.World.reset_clock world;
  List.iter
    (fun i ->
      match M.exec session (p10_template i) with
      | Ok (M.Multitable _) -> ()
      | Ok r -> failwith ("P10: unexpected result " ^ M.result_to_string r)
      | Error m -> failwith ("P10: " ^ m))
    mix;
  let st = Netsim.World.stats world in
  let cs = M.cache_stats session in
  {
    p10_config = config;
    p10_virt_ms = Netsim.World.now_ms world;
    p10_bytes = st.Netsim.World.bytes_moved;
    p10_msgs = st.Netsim.World.messages;
    p10_pool_hits = cs.M.pool_hits;
    p10_plan_hits = cs.M.plan_hits;
    p10_result_hits = cs.M.result_hits;
  }

let p10_session_reuse ?(rows = 6000) ?(n = 150) ?(reps = 3) () =
  header
    "P10: session reuse ablation (Zipf statement mix, 3 sites, same sequence)";
  Printf.printf "%-22s %12s %10s %7s %6s %6s %6s\n" "config" "virt ms"
    "bytes" "msgs" "pool" "plan" "rslt";
  List.map
    (fun (config, pool, result) ->
      let r =
        replay ~name:("P10 " ^ config) ~reps (fun () ->
            p10_run ~rows ~n ~config ~pool ~result)
      in
      Printf.printf "%-22s %12.2f %10d %7d %6d %6d %6d\n" r.p10_config
        r.p10_virt_ms r.p10_bytes r.p10_msgs r.p10_pool_hits r.p10_plan_hits
        r.p10_result_hits;
      r)
    [
      ("cold", false, false);
      ("pool", true, false);
      ("pool+result", true, true);
    ]

(* the reuse layer must never cost traffic: the fully enabled session has
   to move strictly fewer bytes and messages than the cold baseline for
   the identical statement stream — checked in CI before the numbers are
   published *)
let p10_assert_smoke p10 =
  let find c = List.find (fun r -> String.equal r.p10_config c) p10 in
  let cold = find "cold" and hot = find "pool+result" in
  if hot.p10_bytes >= cold.p10_bytes then begin
    Printf.eprintf "P10 smoke FAILED: %d bytes with caches vs %d cold\n"
      hot.p10_bytes cold.p10_bytes;
    exit 1
  end;
  if hot.p10_msgs >= cold.p10_msgs then begin
    Printf.eprintf "P10 smoke FAILED: %d messages with caches vs %d cold\n"
      hot.p10_msgs cold.p10_msgs;
    exit 1
  end;
  Printf.printf
    "P10 smoke assertion passed: %d < %d bytes, %d < %d messages\n"
    hot.p10_bytes cold.p10_bytes hot.p10_msgs cold.p10_msgs

(* ---- P14: concurrent multi-session server -------------------------------------- *)

module Srv = Msql.Server

(* N Zipf clients against one server over the P10 federation: every
   session shares the dictionaries, the connection pool and the
   plan/result caches, and the wave scheduler interleaves their
   statements fairly. Clients submit eagerly up to the queue cap (shed
   submissions are retried next round). *)

type p14_row = {
  p14_clients : int;
  p14_stmts : int;  (* statements completed *)
  p14_virt_ms : float;
  p14_requeues : int;
  p14_shed : int;
  p14_pool_hits : int;
  p14_plan_hits : int;
  p14_result_hits : int;
}

let p14_run ~rows ~per_client ~clients =
  let world, directory = p10_world ~rows in
  let config =
    {
      (Srv.default_config ()) with
      Srv.max_sessions = clients;
      max_queue = 4;
    }
  in
  let srv =
    match
      Srv.create ~config ~world ~directory
        ~services:[ "hub"; "depot"; "mill" ] ()
    with
    | Ok s -> s
    | Error m -> failwith ("P14: " ^ m)
  in
  let sids =
    List.init clients (fun _ ->
        match Srv.connect srv with
        | Ok sid -> sid
        | Error e -> failwith ("P14: " ^ Srv.error_message e))
  in
  (* every client draws its own Zipf stream over the shared templates *)
  let streams =
    Array.of_list
      (List.mapi
         (fun ci sid -> (sid, ref (p10_mix ~seed:(100 + ci) ~k:20 ~n:per_client)))
         sids)
  in
  let completed = ref 0 in
  Netsim.World.reset_stats world;
  Netsim.World.reset_clock world;
  let rec pump () =
    Array.iter
      (fun (sid, stream) ->
        let rec top_up () =
          match !stream with
          | [] -> ()
          | i :: rest -> (
              match Srv.submit srv sid (p10_template i) with
              | Ok _ ->
                  stream := rest;
                  top_up ()
              | Error (Srv.Overloaded _) -> ()  (* queue full: next round *)
              | Error e -> failwith ("P14: " ^ Srv.error_message e))
        in
        top_up ())
      streams;
    List.iter
      (fun c ->
        (match c.Srv.c_result with
        | Ok (M.Multitable _) -> ()
        | Ok r -> failwith ("P14: unexpected result " ^ M.result_to_string r)
        | Error m -> failwith ("P14: " ^ m));
        incr completed)
      (Srv.step_round srv);
    if Array.exists (fun (_, s) -> !s <> []) streams || Srv.queued srv > 0
    then pump ()
  in
  pump ();
  let st = Srv.stats srv in
  let cs = Srv.cache_stats srv in
  {
    p14_clients = clients;
    p14_stmts = !completed;
    p14_virt_ms = Netsim.World.now_ms world;
    p14_requeues = st.Srv.requeues;
    p14_shed = st.Srv.shed;
    p14_pool_hits = cs.M.pool_hits;
    p14_plan_hits = cs.M.plan_hits;
    p14_result_hits = cs.M.result_hits;
  }

let p14_server ?(rows = 2000) ?(per_client = 40) () =
  header
    "P14: concurrent multi-session server (Zipf clients, shared \
     pool+caches)";
  Printf.printf "%-8s %8s %12s %8s %6s %6s %6s %6s\n" "clients" "stmts"
    "virt ms" "requeue" "shed" "pool" "plan" "rslt";
  List.map
    (fun clients ->
      let r = p14_run ~rows ~per_client ~clients in
      Printf.printf "%-8d %8d %12.2f %8d %6d %6d %6d %6d\n" r.p14_clients
        r.p14_stmts r.p14_virt_ms r.p14_requeues r.p14_shed r.p14_pool_hits
        r.p14_plan_hits r.p14_result_hits;
      r)
    [ 1; 4; 16 ]

(* ---- P15: dataflow wave scheduling of whole DOL programs ------------------------- *)

type p15_row = {
  p15_config : string;
  p15_virt_ms : float;
  p15_msgs : int;
  p15_bytes : int;
  p15_waves : int;
  p15_crit_ms : float;
  p15_serial_ms : float;
}

(* blank out "12.34 ms" timings: latency is the one thing the wave
   schedule may change, so result strings compare modulo the clock *)
let p15_scrub s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_t c = (c >= '0' && c <= '9') || c = '.' in
  let i = ref 0 in
  while !i < n do
    if is_t s.[!i] then begin
      let j = ref !i in
      while !j < n && is_t s.[!j] do incr j done;
      if !j + 2 < n && s.[!j] = ' ' && s.[!j + 1] = 'm' && s.[!j + 2] = 's'
      then (Buffer.add_string b "T ms"; i := !j + 3)
      else (Buffer.add_string b (String.sub s !i (!j - !i)); i := !j)
    end
    else (Buffer.add_char b s.[!i]; incr i)
  done;
  Buffer.contents b

(* the workload mixes the shapes the scheduler can overlap: the serial
   open chains of wide multiple statements, and a cross-database transfer
   whose MOVE rides with independent opens *)
let p15_sqls ~n =
  let dbs =
    String.concat " " (List.init n (fun i -> Printf.sprintf "airline%d" (i + 1)))
  in
  [
    Printf.sprintf
      "USE %s SELECT flnu, rate FROM flights WHERE source = 'Houston'" dbs;
    Printf.sprintf
      "USE %s UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'"
      dbs;
    "USE airline1 airline2 INSERT INTO airline1.flights (flnu, source, \
     destination, rate) SELECT f.flnu, f.source, f.destination, f.rate FROM \
     airline2.flights f WHERE f.source = 'Houston'";
  ]

let p15_run ~n ~dataflow ~config =
  let fx = F.airline_fleet ~flights_per_db:60 ~n () in
  M.set_dataflow fx.F.session dataflow;
  Netsim.World.reset_clock fx.F.world;
  Netsim.World.reset_stats fx.F.world;
  let results =
    List.map
      (fun sql ->
        match M.exec fx.F.session sql with
        | Ok r -> p15_scrub (M.result_to_string r)
        | Error m -> failwith ("P15: " ^ m))
      (p15_sqls ~n)
  in
  let state =
    String.concat "\n"
      (List.init n (fun i ->
           let db = Printf.sprintf "airline%d" (i + 1) in
           db ^ ":" ^ Relation.to_string (F.scan fx ~db ~table:"flights")))
  in
  let st = Netsim.World.stats fx.F.world in
  let m = M.metrics fx.F.session in
  ( {
      p15_config = config;
      p15_virt_ms = Netsim.World.now_ms fx.F.world;
      p15_msgs = st.Netsim.World.messages;
      p15_bytes = st.Netsim.World.bytes_moved;
      p15_waves = m.Msql.Metrics.dataflow_waves;
      p15_crit_ms = m.Msql.Metrics.dataflow_crit_ms;
      p15_serial_ms = m.Msql.Metrics.dataflow_serial_ms;
    },
    state,
    results )

let p15_dataflow ?(n = 8) ?(reps = 3) () =
  header "P15: dataflow wave scheduling (whole-program DAG, airline fleet)";
  Printf.printf "%-10s %12s %8s %10s %7s %12s %12s\n" "schedule" "virt ms"
    "msgs" "bytes" "waves" "crit ms" "serial ms";
  let best ~dataflow ~config =
    replay ~name:("P15 " ^ config) ~reps (fun () ->
        p15_run ~n ~dataflow ~config)
  in
  let off, s_off, r_off = best ~dataflow:false ~config:"serial" in
  let on_, s_on, r_on = best ~dataflow:true ~config:"dataflow" in
  List.iter
    (fun r ->
      Printf.printf "%-10s %12.2f %8d %10d %7d %12.2f %12.2f\n" r.p15_config
        r.p15_virt_ms r.p15_msgs r.p15_bytes r.p15_waves r.p15_crit_ms
        r.p15_serial_ms)
    [ off; on_ ];
  Printf.printf "latency reduction: %.2fx\n" (off.p15_virt_ms /. on_.p15_virt_ms);
  (* equality gate: the schedule may only change the clock *)
  if s_off <> s_on || r_off <> r_on then begin
    Printf.eprintf
      "P15 smoke FAILED: dataflow schedule diverges from serial execution\n";
    exit 1
  end;
  Printf.printf
    "P15 assertion passed: byte-identical state and results under the wave \
     schedule\n";
  [ off; on_ ]

let p15_assert_smoke p15 =
  let find c = List.find (fun r -> String.equal r.p15_config c) p15 in
  let off = find "serial" and on_ = find "dataflow" in
  if off.p15_msgs <> on_.p15_msgs || off.p15_bytes <> on_.p15_bytes then begin
    Printf.eprintf
      "P15 smoke FAILED: traffic differs (serial %d msgs/%d bytes, dataflow \
       %d msgs/%d bytes)\n"
      off.p15_msgs off.p15_bytes on_.p15_msgs on_.p15_bytes;
    exit 1
  end;
  let ratio = off.p15_virt_ms /. on_.p15_virt_ms in
  if ratio < 1.5 then begin
    Printf.eprintf "P15 smoke FAILED: latency reduction %.2fx < 1.5x\n" ratio;
    exit 1
  end;
  if on_.p15_crit_ms > on_.p15_serial_ms +. 1e-9 then begin
    Printf.eprintf
      "P15 smoke FAILED: critical path %.2f ms exceeds serial sum %.2f ms\n"
      on_.p15_crit_ms on_.p15_serial_ms;
    exit 1
  end;
  Printf.printf
    "P15 assertion passed: %.2fx virtual latency reduction, critical path \
     %.2f <= serial %.2f ms\n"
    ratio on_.p15_crit_ms on_.p15_serial_ms

(* machine-readable record of the perf-critical experiments, consumed by
   the CI bench-smoke step *)
let write_perf_json ~path p4 p10 p14 p15 =
  let oc = open_out path in
  let p4_json r =
    Printf.sprintf
      {|    {"selectivity_pct": %d, "semijoin_bytes": %d, "semijoin_virtual_ms": %.2f, "decomposed_bytes": %d, "decomposed_virtual_ms": %.2f, "shipall_bytes": %d, "shipall_virtual_ms": %.2f}|}
      r.sel r.sj_bytes r.sj_ms r.dc_bytes r.dc_ms r.na_bytes r.na_ms
  in
  let p10_json r =
    Printf.sprintf
      {|    {"config": "%s", "virtual_ms": %.2f, "bytes_moved": %d, "messages": %d, "pool_hits": %d, "plan_hits": %d, "result_hits": %d}|}
      r.p10_config r.p10_virt_ms r.p10_bytes r.p10_msgs
      r.p10_pool_hits r.p10_plan_hits r.p10_result_hits
  in
  let p14_json r =
    Printf.sprintf
      {|    {"clients": %d, "stmts": %d, "virtual_ms": %.2f, "requeues": %d, "shed": %d, "pool_hits": %d, "plan_hits": %d, "result_hits": %d}|}
      r.p14_clients r.p14_stmts r.p14_virt_ms r.p14_requeues r.p14_shed r.p14_pool_hits
      r.p14_plan_hits r.p14_result_hits
  in
  let p15_json r =
    Printf.sprintf
      {|      {"config": "%s", "virtual_ms": %.2f, "messages": %d, "bytes": %d, "waves": %d, "critical_path_ms": %.2f, "serial_ms": %.2f, "overlap_ratio": %.2f}|}
      r.p15_config r.p15_virt_ms r.p15_msgs r.p15_bytes r.p15_waves
      r.p15_crit_ms r.p15_serial_ms
      (if r.p15_crit_ms > 0.0 then r.p15_serial_ms /. r.p15_crit_ms else 1.0)
  in
  let p15_off = List.find (fun r -> String.equal r.p15_config "serial") p15 in
  let p15_on = List.find (fun r -> String.equal r.p15_config "dataflow") p15 in
  Printf.fprintf oc
    "{\n\
    \  \"p4_data_shipping\": [\n\
     %s\n\
    \  ],\n\
    \  \"p10_session_reuse\": [\n\
     %s\n\
    \  ],\n\
    \  \"p14_server\": [\n\
     %s\n\
    \  ],\n\
    \  \"p15_dataflow\": {\n\
    \    \"latency_reduction\": %.2f,\n\
    \    \"runs\": [\n\
     %s\n\
    \    ]\n\
    \  }\n\
     }\n"
    (String.concat ",\n" (List.map p4_json p4))
    (String.concat ",\n" (List.map p10_json p10))
    (String.concat ",\n" (List.map p14_json p14))
    (p15_off.p15_virt_ms /. p15_on.p15_virt_ms)
    (String.concat ",\n" (List.map p15_json p15));
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ---- session metrics export (observability layer) -------------------------------- *)

(* Replay the P4 workload once on a fresh session and export that session's
   metrics registry. Before writing anything, cross-check the two byte
   ledgers the registry reports: delivered traffic is charged to exactly
   one sender, so the per-site [sent_bytes] figures must sum to the global
   [bytes_moved] exactly — a drifting counter fails the smoke run before
   the JSON is uploaded. *)
let write_metrics_json ~path =
  let session, world = p4_setup 200 in
  Netsim.World.reset_stats world;
  Netsim.World.reset_clock world;
  (match M.exec session (p4_query 50) with
  | Ok _ -> ()
  | Error m -> failwith m);
  let st = Netsim.World.stats world in
  let site_sent_bytes, site_sent_msgs =
    List.fold_left
      (fun (b, m) (_, s) ->
        (b + s.Netsim.World.sent_bytes, m + s.Netsim.World.sent_msgs))
      (0, 0) (Netsim.World.per_site world)
  in
  if site_sent_bytes <> st.Netsim.World.bytes_moved then begin
    Printf.eprintf "metrics smoke FAILED: per-site sent bytes %d <> bytes_moved %d\n"
      site_sent_bytes st.Netsim.World.bytes_moved;
    exit 1
  end;
  if site_sent_msgs <> st.Netsim.World.messages then begin
    Printf.eprintf "metrics smoke FAILED: per-site sent msgs %d <> messages %d\n"
      site_sent_msgs st.Netsim.World.messages;
    exit 1
  end;
  Printf.printf
    "metrics smoke assertion passed: per-site sums match world stats \
     (%d bytes, %d messages)\n"
    site_sent_bytes site_sent_msgs;
  let oc = open_out path in
  output_string oc (M.metrics_json session);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---- P5: DOL optimizer ablation (Â§5 future work) ------------------------------- *)

let p5_optimizer_ablation () =
  header "P5: DOL optimizer ablation (parallel opens, task merging)";
  Printf.printf "%-6s %14s %14s %9s %12s
" "dbs" "plain ms" "optimized ms"
    "gain" "tasks merged";
  List.iter
    (fun n ->
      let sql = fleet_update n in
      let fx = F.airline_fleet ~n () in
      let prog =
        match M.translate fx.F.session sql with
        | Ok p -> p
        | Error m -> failwith m
      in
      let plain_ms, _ = run_program fx prog in
      let fx2 = F.airline_fleet ~n () in
      let optimized, stats = Narada.Dol_opt.optimize_with_stats prog in
      let opt_ms, _ = run_program fx2 optimized in
      Printf.printf "%-6d %14.2f %14.2f %8.2fx %12d
" n plain_ms opt_ms
        (plain_ms /. opt_ms) stats.Narada.Dol_opt.tasks_merged)
    [ 2; 4; 8; 12 ]

(* ---- P6: index fast-path ablation (local DBMS substrate) ------------------------ *)

let time_us f =
  let t0 = Unix.gettimeofday () in
  let iters = 200 in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int iters

let p6_index_ablation () =
  header "P6: equality-lookup index vs full scan (local engine, wall time)";
  Printf.printf "%-8s %14s %14s %9s
" "rows" "scan us" "indexed us" "speedup";
  List.iter
    (fun n ->
      let make indexed =
        let db = Ldbms.Database.create "w" in
        Ldbms.Database.load db ~name:"stock"
          [ Schema.column "sku" Ty.Int; Schema.column "bin" Ty.Str ]
          (List.init n (fun i ->
               [| Value.Int i; Value.Str (Printf.sprintf "bin%d" (i mod 97)) |]));
        if indexed then
          Ldbms.Database.create_index db ~name:"i" ~table:"stock" ~column:"bin";
        Ldbms.Session.connect db Ldbms.Capabilities.ingres_like
      in
      let sql = "SELECT sku FROM stock WHERE bin = 'bin13'" in
      let s_scan = make false and s_idx = make true in
      let scan_us =
        time_us (fun () -> Ldbms.Session.exec_sql s_scan sql)
      in
      let idx_us = time_us (fun () -> Ldbms.Session.exec_sql s_idx sql) in
      Printf.printf "%-8d %14.1f %14.1f %8.1fx
" n scan_us idx_us
        (scan_us /. idx_us))
    [ 100; 1000; 5000 ]

(* ---- P7: outcome distribution under random local failures ----------------------- *)

(* Stresses the vital-set guarantee of Â§3.2.1: with failures injected at
   every point (execute/prepare/commit) with probability p, how often does
   each outcome occur? "Incorrect" requires a second-phase failure window,
   so it stays rare even as aborts soar. *)
let p7_outcome_distribution () =
  header "P7: outcome distribution vs failure probability (200 trials each)";
  Printf.printf "%-8s | %-9s %-9s %-9s | %-9s %-9s %-9s
" "" "all-2PC" "" ""
    "autocommit+COMP" "" "";
  Printf.printf "%-8s | %-9s %-9s %-9s | %-9s %-9s %-9s
" "p(fail)" "success"
    "aborted" "INCORRECT" "success" "aborted" "INCORRECT";
  let trials = 200 in
  let run_one ~caps ~sql ~seed ~prob =
    let fx = F.make ~caps () in
    List.iteri
      (fun i db ->
        Ldbms.Failure_injector.set_random
          (Narada.Directory.find fx.F.directory db).Narada.Service.injector
          ~seed:((seed * 31) + i) ~prob)
      [ "continental"; "delta"; "united" ];
    match M.exec fx.F.session sql with
    | Ok (M.Update_report { outcome; _ }) -> Some outcome
    | Ok _ | Error _ -> None
  in
  let count ~caps ~sql ~prob =
    let s = ref 0 and a = ref 0 and i = ref 0 in
    for seed = 1 to trials do
      match run_one ~caps ~sql ~seed ~prob with
      | Some M.Success -> incr s
      | Some M.Aborted -> incr a
      | Some M.Incorrect -> incr i
      | None -> ()
    done;
    (!s, !a, !i)
  in
  List.iter
    (fun prob ->
      let s1, a1, i1 = count ~caps:[] ~sql:e3 ~prob in
      let s2, a2, i2 =
        count
          ~caps:[ ("continental", Ldbms.Capabilities.sybase_like) ]
          ~sql:e4 ~prob
      in
      Printf.printf "%-8.2f | %-9d %-9d %-9d | %-9d %-9d %-9d
" prob s1 a1 i1
        s2 a2 i2)
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

(* ---- P8: function replication availability (Â§3.4 motivation) -------------------- *)

(* A stream of booking multitransactions, each able to run its update on
   either of two airlines (function replication, acceptable states
   [first] [second]) versus a baseline allowed only the first airline.
   As local failures rise, replication converts failures into fallbacks. *)
let p8_function_replication () =
  header "P8: function replication under failures (100 multitransactions)";
  Printf.printf "%-8s | %-10s %-10s %-7s | %-10s %-7s
" "" "replicated" "" ""
    "single" "";
  Printf.printf "%-8s | %-10s %-10s %-7s | %-10s %-7s
" "p(fail)" "first"
    "fallback" "failed" "committed" "failed";
  let txns = 100 in
  let mtx ~replicated a b =
    if replicated then
      Printf.sprintf
        {|BEGIN MULTITRANSACTION
  USE %s %s
  UPDATE flights SET rate = rate + 1 WHERE source = 'Houston';
COMMIT
  %s
  %s
END MULTITRANSACTION|}
        a b a b
    else
      Printf.sprintf
        {|BEGIN MULTITRANSACTION
  USE %s
  UPDATE flights SET rate = rate + 1 WHERE source = 'Houston';
COMMIT
  %s
END MULTITRANSACTION|}
        a a
  in
  let run ~replicated ~prob =
    let fx = F.airline_fleet ~n:4 ~flights_per_db:40 () in
    let rng = Random.State.make [| 2026 |] in
    List.iteri
      (fun i db ->
        Ldbms.Failure_injector.set_random
          (Narada.Directory.find fx.F.directory db).Narada.Service.injector
          ~seed:(1000 + i) ~prob)
      [ "airline1"; "airline2"; "airline3"; "airline4" ];
    let first = ref 0 and fallback = ref 0 and failed = ref 0 in
    for _ = 1 to txns do
      let a = 1 + Random.State.int rng 4 in
      let b = 1 + ((a + Random.State.int rng 3) mod 4) in
      let sql =
        mtx ~replicated
          (Printf.sprintf "airline%d" a)
          (Printf.sprintf "airline%d" b)
      in
      match M.exec fx.F.session sql with
      | Ok (M.Mtx_report { chosen = Some 0; _ }) -> incr first
      | Ok (M.Mtx_report { chosen = Some _; _ }) -> incr fallback
      | Ok (M.Mtx_report { chosen = None; _ }) -> incr failed
      | Ok _ | Error _ -> incr failed
    done;
    (!first, !fallback, !failed)
  in
  List.iter
    (fun prob ->
      let f1, fb, fl = run ~replicated:true ~prob in
      let s1, _, sfl = run ~replicated:false ~prob in
      Printf.printf "%-8.2f | %-10d %-10d %-7d | %-10d %-7d
" prob f1 fb fl s1
        sfl)
    [ 0.0; 0.1; 0.3; 0.5 ]

let () =
  (* --perf-smoke: only the perf-critical experiments plus their JSON
     record — the CI smoke configuration *)
  let smoke = Array.exists (String.equal "--perf-smoke") Sys.argv in
  if smoke then begin
    let p4 = p4_shipping () in
    (* reduced P10: the traffic and determinism assertions are
       deterministic (virtual network), so the small configurations check
       the same invariants *)
    let p10 = p10_session_reuse ~rows:800 ~n:60 () in
    p10_assert_smoke p10;
    (* reduced P14: the throughput grid at smoke size *)
    let p14 = p14_server ~rows:500 ~per_client:15 () in
    (* reduced P15: the equality and >=1.5x latency gates hold at any
       fleet width, so the smoke fleet shrinks with the rest *)
    let p15 = p15_dataflow ~n:6 ~reps:2 () in
    p15_assert_smoke p15;
    write_perf_json ~path:"BENCH_perf.json" p4 p10 p14 p15;
    write_metrics_json ~path:"BENCH_metrics.json";
    print_newline ()
  end
  else begin
    paper_examples ();
    p1_parallelism ();
    p2_vital_overhead ();
    let p4 = p4_shipping () in
    p5_optimizer_ablation ();
    p6_index_ablation ();
    p7_outcome_distribution ();
    p8_function_replication ();
    let p10 = p10_session_reuse () in
    p10_assert_smoke p10;
    let p14 = p14_server () in
    let p15 = p15_dataflow () in
    p15_assert_smoke p15;
    write_perf_json ~path:"BENCH_perf.json" p4 p10 p14 p15;
    write_metrics_json ~path:"BENCH_metrics.json";
    print_newline ()
  end
