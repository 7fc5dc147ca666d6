(* Benchmark harness: the four experiments recorded in BENCH_perf.json,
   P4 (data shipping, on the default sites and again over a wide-area
   link), P10 (session reuse), P14 (multi-session server) and P15
   (dataflow waves). Each runs every configuration three times on
   fresh state, prints its table, passes its checks (a failure exits 1
   with "<P> smoke FAILED: ...") and adds one field to the record; the P4
   query's session metrics go to BENCH_metrics.json. Both records hold
   only virtual time, traffic and counters, so they regenerate byte for
   byte. E1–E5, P1 and P2 are pinned by test_paper_examples, test_dataflow
   and test_vital, P7/P8 by bench/chaos.ml; wall-clock costs by msqlbench/.

   Run with:  dune exec bench/main.exe
   CI smoke:  dune exec bench/main.exe -- --perf-smoke  (smaller sizes) *)

open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module W = Netsim.World

let reset world =
  W.reset_stats world;
  W.reset_clock world

let ok_or_fail = function Ok x -> x | Error m -> failwith m

let expect_multitable id = function
  | Ok (M.Multitable _) -> ()
  | Ok r -> failwith (id ^ ": unexpected result " ^ M.result_to_string r)
  | Error m -> failwith (id ^ ": " ^ m)

let fail id why =
  Printf.eprintf "%s smoke FAILED: %s\n" id why;
  exit 1

(* Exit 1 at the first failed check, else print "<passed> assertion
   passed: <what>" ([passed] defaults to the experiment id). *)
let gate ~id ?(passed = id) checks what =
  List.iter (fun (ok, why) -> if not ok then fail id why) checks;
  Printf.printf "%s assertion passed: %s\n" passed what

(* The virtual network is deterministic, so all three runs of a
   configuration on fresh state must be equal. *)
let replay ~id i run =
  let first = run () in
  for _ = 2 to 3 do
    if run () <> first then
      fail id (Printf.sprintf "configuration %d replays differently" (i + 1))
  done;
  first

(* An experiment: its configurations at full or smoke size, the table
   printer, the BENCH_perf.json field and the checks over its rows. *)
type experiment =
  | Experiment : {
      id : string;
      title : string;
      columns : string;
      configs : smoke:bool -> (unit -> 'r) list;
      print : 'r list -> unit;
      json : 'r list -> string;
      checks : 'r list -> unit;
    }
      -> experiment

let json_array ?(indent = "  ") key row rows =
  Printf.sprintf "%s\"%s\": [\n%s\n%s]" indent key
    (String.concat ",\n" (List.map row rows))
    indent

(* one ingres-like service per (site, database) *)
let register world directory =
  List.iter (fun (site, db) ->
      W.add_site world (Netsim.Site.make site);
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db))

let incorporate session =
  List.iter (fun service ->
      ok_or_fail (M.incorporate_auto session ~service);
      ok_or_fail (M.import_all session ~service))

(* ---- P4: data shipping under decomposition vs naive shipping --------------------- *)

(* [w1], when given, replaces the wholesale site's network model *)
let p4_setup ?w1 rows =
  let world = W.create () in
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
  register world directory [ ("w1", wholesale); ("w2", retail) ];
  Option.iter (W.add_site world) w1;
  incorporate session [ "wholesale"; "retail" ];
  (session, world)

let p4_query max_price =
  Printf.sprintf
    {|USE wholesale retail
SELECT s.sid, p.pname, s.qty
FROM retail.sales s, wholesale.parts p
WHERE s.part_id = p.pid AND p.price < %d|}
    max_price

(* The forced plans: decomposition coordinated at retail, the database
   the reference-count rule picked before the planner priced its plans,
   with the semijoin reduction forced on or off. Scheduled by the dataflow
   pass like a session's program, so only the plan differs. *)
let p4_forced_program ~semijoin max_price =
  Printf.sprintf
    {|DOLBEGIN
  OPEN retail AT w2 AS retail;
  OPEN wholesale AT w1 AS wholesale;
  PARBEGIN
    MOVE m_wholesale FROM wholesale TO retail TABLE msql_tmp_1
      { SELECT p.pname AS p__pname, p.pid AS p__pid, p.price AS p__price FROM parts p WHERE (p.price < %d) }
      %s
    ENDMOVE;
  PAREND;
  IF (m_wholesale=C) THEN
  BEGIN
    TASK t_q FOR retail
      { SELECT s.sid AS sid, msql_tmp_1.p__pname AS pname, s.qty AS qty FROM sales s, msql_tmp_1 WHERE (s.part_id = msql_tmp_1.p__pid) }
    ENDTASK;
    TASK t_clean FOR retail { DROP TABLE msql_tmp_1 } ENDTASK;
    IF (t_q=C) THEN BEGIN DOLSTATUS = 0; END;
    ELSE BEGIN DOLSTATUS = 1; END;
  END;
  ELSE BEGIN DOLSTATUS = 1; END;
  CLOSE retail wholesale;
DOLEND|}
    max_price
    (if semijoin then "SEMIJOIN { p.pid } PROBE { SELECT DISTINCT s.part_id FROM sales s }"
     else "")

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

(* one way of answering the query: bytes moved, virtual ms, and the
   answer's rows in a canonical order *)
type p4_cell = { bytes : int; ms : float; answer : Row.t list }

type p4_row = {
  sel : int;  (* predicate selectivity, percent *)
  sj : p4_cell;  (* retail coordinates, semijoin reduction forced on *)
  dc : p4_cell;  (* retail coordinates, reduction forced off *)
  na : p4_cell;  (* naive ship-all baseline *)
  priced : p4_cell;  (* the priced plan of a default session *)
}

let p4_rows = 200

let p4_cell ?w1 answer =
  let session, world = p4_setup ?w1 p4_rows in
  reset world;
  let rel = answer session world in
  {
    bytes = (W.stats world).W.bytes_moved;
    ms = W.now_ms world;
    answer = List.sort Row.compare (Relation.rows rel);
  }

let p4_engine ~schedule text session world =
  let program = Narada.Dol_parser.parse text in
  let program = if schedule then fst (Narada.Dol_graph.schedule program) else program in
  let outcome =
    ok_or_fail (Narada.Engine.run ~directory:(M.directory session) ~world program)
  in
  List.assoc "t_q" outcome.Narada.Engine.results

let p4_run ?w1 max_price =
  let forced semijoin =
    p4_cell ?w1 (p4_engine ~schedule:true (p4_forced_program ~semijoin max_price))
  in
  let session_plan session _ =
    match ok_or_fail (M.exec session (p4_query max_price)) with
    | M.Multitable mt -> Option.get (Msql.Multitable.flatten mt)
    | r -> failwith ("P4: unexpected result " ^ M.result_to_string r)
  in
  {
    sel = max_price;
    sj = forced true;
    dc = forced false;
    na = p4_cell ?w1 (p4_engine ~schedule:false (p4_naive_program max_price));
    priced = p4_cell ?w1 session_plan;
  }

let p4_experiment ~id ~title ~key ?w1 () =
  Experiment
    {
      id;
      title;
      columns =
        Printf.sprintf "%-12s %12s %9s %12s %9s %12s %9s %12s %9s\n" "selectivity"
          "semijoin B" "ms" "decomp B" "ms" "ship-all B" "ms" "priced B" "ms";
      configs =
        (fun ~smoke:_ ->
          List.map (fun p () -> p4_run ?w1 p) [ 5; 25; 50; 75; 100 ]);
      print =
        List.iter (fun r ->
            Printf.printf "%-12s %12d %9.2f %12d %9.2f %12d %9.2f %12d %9.2f\n"
              (Printf.sprintf "%d%%" r.sel)
              r.sj.bytes r.sj.ms r.dc.bytes r.dc.ms r.na.bytes r.na.ms r.priced.bytes
              r.priced.ms);
      json =
        json_array key (fun r ->
            Printf.sprintf
              {|    {"selectivity_pct": %d, "semijoin_bytes": %d, "semijoin_virtual_ms": %.2f, "decomposed_bytes": %d, "decomposed_virtual_ms": %.2f, "shipall_bytes": %d, "shipall_virtual_ms": %.2f, "priced_bytes": %d, "priced_virtual_ms": %.2f}|}
              r.sel r.sj.bytes r.sj.ms r.dc.bytes r.dc.ms r.na.bytes r.na.ms
              r.priced.bytes r.priced.ms);
      (* the priced plan must answer as every forced plan does, and never
         be slower than shipping everything *)
      checks =
        (fun rows ->
          gate ~id ~passed:(id ^ " smoke")
            (List.concat_map
               (fun r ->
                 List.map
                   (fun (name, c) ->
                     ( c.answer = r.priced.answer,
                       Printf.sprintf "%d%%: the priced answer differs from %s's"
                         r.sel name ))
                   [ ("semijoin", r.sj); ("decomp", r.dc); ("ship-all", r.na) ]
                 @ [
                     ( r.priced.ms <= r.na.ms,
                       Printf.sprintf
                         "%d%%: the priced plan takes %.2f virtual ms, ship-all \
                          %.2f"
                         r.sel r.priced.ms r.na.ms );
                   ])
               rows)
            "the priced plan answers as every forced plan and is never \
             slower than ship-all");
    }

let p4 =
  p4_experiment ~id:"P4" ~key:"p4_data_shipping"
    ~title:"P4: bytes shipped to the coordinator vs predicate selectivity" ()

(* The same query with the wholesale catalogue behind a wide-area T1 link
   (35 ms one way, 1.544 Mbit/s): a shipped byte costs about 50 times
   what it does on the default link, so the bytes a semijoin reduction
   saves can outweigh its extra key round trip — the case the reduction
   exists for. *)
let p4_wan =
  p4_experiment ~id:"P4-WAN" ~key:"p4_data_shipping_wan"
    ~title:"P4 over a wide-area link: w1 on a T1 (35 ms, 1.544 Mbit/s)"
    ~w1:(Netsim.Site.make ~latency_ms:35.0 ~per_byte_ms:(8.0 /. 1544.0) "w1")
    ()

(* ---- P10: session reuse layer ablation ------------------------------------ *)

(* A long-lived session executing a Zipf-skewed mix of repeated global
   joins over three sites — the workload the session performance layer is
   built for. Each ablation turns on one more traffic-saving reuse
   mechanism (connection pool, shipped-result cache) and replays the
   exact same statement sequence; the plan cache is always on, so every
   configuration reports its plan hits. *)

type p10_row = {
  p10_config : string;
  p10_virt_ms : float;
  p10_bytes : int;
  p10_msgs : int;
  p10_cache : M.cache_stats;
}

(* three sites: a small hub of sales orders plus two large catalogues; the
   hub owns the first reference of every query, so it coordinates and the
   big relations are what ships *)
let p10_world ~rows =
  let world = W.create () in
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
  register world directory [ ("h1", hub); ("d2", depot); ("m3", mill) ];
  (world, directory)

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
  let weights = Array.init k (fun i -> 1.0 /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let cum =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ ->
      let u = Random.State.float rng 1.0 in
      let rec find i = if i >= k - 1 || cum.(i) >= u then i else find (i + 1) in
      find 0)

let p10_run ~rows ~n (config, pool, result) =
  let world, directory = p10_world ~rows in
  let session = M.create ~world ~directory () in
  incorporate session [ "hub"; "depot"; "mill" ];
  M.set_pooling session pool;
  M.set_result_cache session result;
  reset world;
  List.iter
    (fun i -> expect_multitable "P10" (M.exec session (p10_template i)))
    (p10_mix ~seed:42 ~k:20 ~n);
  let st = W.stats world in
  {
    p10_config = config;
    p10_virt_ms = W.now_ms world;
    p10_bytes = st.W.bytes_moved;
    p10_msgs = st.W.messages;
    p10_cache = M.cache_stats session;
  }

let p10 =
  Experiment
    {
      id = "P10";
      title =
        "P10: session reuse ablation (Zipf statement mix, 3 sites, same sequence)";
      columns =
        Printf.sprintf "%-22s %12s %10s %7s %6s %6s %6s\n" "config" "virt ms"
          "bytes" "msgs" "pool" "plan" "rslt";
      configs =
        (fun ~smoke ->
          (* the traffic checks hold at any size, so smoke shrinks both
             the catalogues and the statement stream *)
          let rows, n = if smoke then (800, 60) else (6000, 150) in
          List.map
            (fun c () -> p10_run ~rows ~n c)
            [ ("cold", false, false); ("pool", true, false);
              ("pool+result", true, true) ]);
      print =
        List.iter (fun r ->
            let c = r.p10_cache in
            Printf.printf "%-22s %12.2f %10d %7d %6d %6d %6d\n" r.p10_config
              r.p10_virt_ms r.p10_bytes r.p10_msgs c.M.pool_hits c.M.plan_hits
              c.M.result_hits);
      json =
        json_array "p10_session_reuse" (fun r ->
            let c = r.p10_cache in
            Printf.sprintf
              {|    {"config": "%s", "virtual_ms": %.2f, "bytes_moved": %d, "messages": %d, "pool_hits": %d, "plan_hits": %d, "result_hits": %d}|}
              r.p10_config r.p10_virt_ms r.p10_bytes r.p10_msgs c.M.pool_hits
              c.M.plan_hits c.M.result_hits);
      (* the reuse layer must never cost traffic: the fully enabled
         session has to move strictly fewer bytes and messages than the
         cold baseline for the identical statement stream *)
      checks =
        (fun rows ->
          let find c = List.find (fun r -> String.equal r.p10_config c) rows in
          let cold = find "cold" and hot = find "pool+result" in
          gate ~id:"P10" ~passed:"P10 smoke"
            [
              ( hot.p10_bytes < cold.p10_bytes,
                Printf.sprintf "%d bytes with caches vs %d cold" hot.p10_bytes
                  cold.p10_bytes );
              ( hot.p10_msgs < cold.p10_msgs,
                Printf.sprintf "%d messages with caches vs %d cold"
                  hot.p10_msgs cold.p10_msgs );
            ]
            (Printf.sprintf "%d < %d bytes, %d < %d messages" hot.p10_bytes
               cold.p10_bytes hot.p10_msgs cold.p10_msgs));
    }

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
  p14_cache : M.cache_stats;
}

let p14_run ~rows ~per_client ~clients =
  let world, directory = p10_world ~rows in
  let config =
    { (Srv.default_config ()) with Srv.max_sessions = clients; max_queue = 4 }
  in
  let srv =
    ok_or_fail
      (Srv.create ~config ~world ~directory
         ~services:[ "hub"; "depot"; "mill" ] ())
  in
  let sids =
    List.init clients (fun _ ->
        ok_or_fail (Result.map_error Srv.error_message (Srv.connect srv)))
  in
  (* every client draws its own Zipf stream over the shared templates *)
  let streams =
    List.mapi
      (fun ci sid -> (sid, ref (p10_mix ~seed:(100 + ci) ~k:20 ~n:per_client)))
      sids
  in
  let rec top_up (sid, stream) =
    match !stream with
    | [] -> ()
    | i :: rest -> (
        match Srv.submit srv sid (p10_template i) with
        | Ok _ ->
            stream := rest;
            top_up (sid, stream)
        | Error (Srv.Overloaded _) -> ()  (* queue full: next round *)
        | Error e -> failwith ("P14: " ^ Srv.error_message e))
  in
  let completed = ref 0 in
  reset world;
  let rec pump () =
    List.iter top_up streams;
    List.iter
      (fun c ->
        expect_multitable "P14" c.Srv.c_result;
        incr completed)
      (Srv.step_round srv);
    if List.exists (fun (_, s) -> !s <> []) streams || Srv.queued srv > 0
    then pump ()
  in
  pump ();
  let st = Srv.stats srv in
  {
    p14_clients = clients;
    p14_stmts = !completed;
    p14_virt_ms = W.now_ms world;
    p14_requeues = st.Srv.requeues;
    p14_shed = st.Srv.shed;
    p14_cache = Srv.cache_stats srv;
  }

let p14 =
  Experiment
    {
      id = "P14";
      title =
        "P14: concurrent multi-session server (Zipf clients, shared \
         pool+caches)";
      columns =
        Printf.sprintf "%-8s %8s %12s %8s %6s %6s %6s %6s\n" "clients" "stmts"
          "virt ms" "requeue" "shed" "pool" "plan" "rslt";
      configs =
        (fun ~smoke ->
          let rows, per_client = if smoke then (500, 15) else (2000, 40) in
          List.map (fun clients () -> p14_run ~rows ~per_client ~clients)
            [ 1; 4; 16 ]);
      print =
        List.iter (fun r ->
            let c = r.p14_cache in
            Printf.printf "%-8d %8d %12.2f %8d %6d %6d %6d %6d\n" r.p14_clients
              r.p14_stmts r.p14_virt_ms r.p14_requeues r.p14_shed
              c.M.pool_hits c.M.plan_hits c.M.result_hits);
      json =
        json_array "p14_server" (fun r ->
            let c = r.p14_cache in
            Printf.sprintf
              {|    {"clients": %d, "stmts": %d, "virtual_ms": %.2f, "requeues": %d, "shed": %d, "pool_hits": %d, "plan_hits": %d, "result_hits": %d}|}
              r.p14_clients r.p14_stmts r.p14_virt_ms r.p14_requeues r.p14_shed
              c.M.pool_hits c.M.plan_hits c.M.result_hits);
      checks = ignore;
    }

(* ---- P15: dataflow wave scheduling of whole DOL programs ------------------------- *)

type p15_row = {
  p15_config : string;
  p15_virt_ms : float;
  p15_msgs : int;
  p15_bytes : int;
  p15_waves : int;
  p15_crit_ms : float;
  p15_serial_ms : float;
  p15_state : string;  (* final contents of every flights table *)
  p15_results : string list;  (* result texts, timings scrubbed *)
}

(* blank out "12.34 ms" timings: latency is the one thing the wave
   schedule may change, so result strings compare modulo the clock *)
let p15_scrub = Str.global_replace (Str.regexp "[0-9.]+ ms") "T ms"

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

let p15_run ~n (config, dataflow) =
  let fx = F.airline_fleet ~flights_per_db:60 ~n () in
  M.set_dataflow fx.F.session dataflow;
  reset fx.F.world;
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
  let st = W.stats fx.F.world in
  let m = M.metrics fx.F.session in
  {
    p15_config = config;
    p15_virt_ms = W.now_ms fx.F.world;
    p15_msgs = st.W.messages;
    p15_bytes = st.W.bytes_moved;
    p15_waves = m.Msql.Metrics.dataflow_waves;
    p15_crit_ms = m.Msql.Metrics.dataflow_crit_ms;
    p15_serial_ms = m.Msql.Metrics.dataflow_serial_ms;
    p15_state = state;
    p15_results = results;
  }

(* the serial and the dataflow run *)
let p15_pair = function
  | [ off; on_ ] -> (off, on_)
  | _ -> invalid_arg "P15: expected the serial and dataflow runs"

let p15_reduction runs =
  let off, on_ = p15_pair runs in
  off.p15_virt_ms /. on_.p15_virt_ms

let p15 =
  Experiment
    {
      id = "P15";
      title = "P15: dataflow wave scheduling (whole-program DAG, airline fleet)";
      columns =
        Printf.sprintf "%-10s %12s %8s %10s %7s %12s %12s\n" "schedule"
          "virt ms" "msgs" "bytes" "waves" "crit ms" "serial ms";
      configs =
        (fun ~smoke ->
          (* the equality and >= 1.5x gates hold at any fleet width *)
          let n = if smoke then 6 else 8 in
          List.map (fun c () -> p15_run ~n c)
            [ ("serial", false); ("dataflow", true) ]);
      print =
        (fun runs ->
          List.iter
            (fun r ->
              Printf.printf "%-10s %12.2f %8d %10d %7d %12.2f %12.2f\n"
                r.p15_config r.p15_virt_ms r.p15_msgs r.p15_bytes r.p15_waves
                r.p15_crit_ms r.p15_serial_ms)
            runs;
          Printf.printf "latency reduction: %.2fx\n" (p15_reduction runs));
      json =
        (fun runs ->
          Printf.sprintf
            "  \"p15_dataflow\": {\n    \"latency_reduction\": %.2f,\n%s\n  }"
            (p15_reduction runs)
            (json_array ~indent:"    " "runs"
               (fun r ->
                 Printf.sprintf
                   {|      {"config": "%s", "virtual_ms": %.2f, "messages": %d, "bytes": %d, "waves": %d, "critical_path_ms": %.2f, "serial_ms": %.2f, "overlap_ratio": %.2f}|}
                   r.p15_config r.p15_virt_ms r.p15_msgs r.p15_bytes r.p15_waves
                   r.p15_crit_ms r.p15_serial_ms
                   (if r.p15_crit_ms > 0.0 then r.p15_serial_ms /. r.p15_crit_ms
                    else 1.0))
               runs));
      checks =
        (fun runs ->
          let off, on_ = p15_pair runs in
          (* the schedule may only change the clock *)
          gate ~id:"P15"
            [
              ( off.p15_state = on_.p15_state
                && off.p15_results = on_.p15_results,
                "dataflow schedule diverges from serial execution" );
            ]
            "byte-identical state and results under the wave schedule";
          let ratio = p15_reduction runs in
          gate ~id:"P15"
            [
              ( off.p15_msgs = on_.p15_msgs && off.p15_bytes = on_.p15_bytes,
                Printf.sprintf
                  "traffic differs (serial %d msgs/%d bytes, dataflow %d \
                   msgs/%d bytes)"
                  off.p15_msgs off.p15_bytes on_.p15_msgs on_.p15_bytes );
              (ratio >= 1.5, Printf.sprintf "latency reduction %.2fx < 1.5x" ratio);
              ( on_.p15_crit_ms <= on_.p15_serial_ms +. 1e-9,
                Printf.sprintf "critical path %.2f ms exceeds serial sum %.2f ms"
                  on_.p15_crit_ms on_.p15_serial_ms );
            ]
            (Printf.sprintf
               "%.2fx virtual latency reduction, critical path %.2f <= serial \
                %.2f ms"
               ratio on_.p15_crit_ms on_.p15_serial_ms));
    }

(* ---- session metrics export (observability layer) -------------------------------- *)

(* Run the P4 query once on a fresh session and export its metrics
   registry. Delivered traffic is charged to exactly one sender, so the
   per-site sent figures must sum to the global counters exactly: a
   drifting counter fails the run before the JSON is written. *)
let write_metrics_json ~path =
  let session, world = p4_setup p4_rows in
  reset world;
  ignore (ok_or_fail (M.exec session (p4_query 50)));
  let st = W.stats world in
  let sent_bytes, sent_msgs =
    List.fold_left
      (fun (b, m) (_, s) -> (b + s.W.sent_bytes, m + s.W.sent_msgs))
      (0, 0) (W.per_site world)
  in
  gate ~id:"metrics" ~passed:"metrics smoke"
    [
      ( sent_bytes = st.W.bytes_moved,
        Printf.sprintf "per-site sent bytes %d <> bytes_moved %d" sent_bytes
          st.W.bytes_moved );
      ( sent_msgs = st.W.messages,
        Printf.sprintf "per-site sent msgs %d <> messages %d" sent_msgs
          st.W.messages );
    ]
    (Printf.sprintf "per-site sums match world stats (%d bytes, %d messages)"
       sent_bytes sent_msgs);
  let oc = open_out path in
  output_string oc (M.metrics_json session);
  close_out oc;
  Printf.printf "wrote %s\n" path

let main ~smoke =
  let fields =
    List.map
      (fun (Experiment e) ->
        let line = String.make 72 '-' in
        Printf.printf "\n%s\n%s\n%s\n" line e.title line;
        print_string e.columns;
        let rows = List.mapi (replay ~id:e.id) (e.configs ~smoke) in
        e.print rows;
        e.checks rows;
        e.json rows)
      [ p4; p4_wan; p10; p14; p15 ]
  in
  let oc = open_out "BENCH_perf.json" in
  Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" fields);
  close_out oc;
  Printf.printf "\nwrote BENCH_perf.json\n";
  write_metrics_json ~path:"BENCH_metrics.json";
  print_newline ()

let () = main ~smoke:(Array.exists (String.equal "--perf-smoke") Sys.argv)
