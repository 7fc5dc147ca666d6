(* Plan-cache transparency. Every statement kind is planned through one
   cached path, so a hit must be invisible everywhere but in
   [cache_stats]: the same DOL program and EXPLAIN MULTIPLE text as a
   fresh session, the same planning metrics per use. Every planning input
   (dictionaries, planner flags, effective scope, multidatabase members)
   must still force exactly one miss. *)
open Sqlcore
module F = Msql.Fixtures
module M = Msql.Msession
module Metrics = Msql.Metrics
module Caps = Ldbms.Capabilities

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

(* ---- statements ------------------------------------------------------- *)

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

(* the three-database join of the observability suite: the semijoin cost
   gate fires, so the plan carries a real decomposition *)
let join3 =
  "USE market store depot SELECT s.sid, p.pname, st.wh FROM market.sales s, \
   store.parts p, depot.stock st WHERE s.part_id = p.pid AND s.part_id = \
   st.spid"

let make_fed3 () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  let sales = List.init 10 (fun k -> [| i k; i (k mod 5); i (k + 1) |]) in
  let parts =
    List.init 200 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 9.5 |])
  in
  let stock =
    List.init 150 (fun k -> [| i (k mod 50); s (Printf.sprintf "wh%d" k) |])
  in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Caps.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [
      ( "market", "msite", "sales",
        [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ],
        sales );
      ( "store", "ssite", "parts",
        [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ],
        parts );
      ( "depot", "dsite", "stock",
        [ col "spid" Ty.Int; col ~width:16 "wh" Ty.Str ],
        stock );
    ];
  session

let fixture ?caps () = (F.make ?caps ()).F.session
let comp_caps = [ ("continental", Caps.sybase_like) ]

(* (name, fresh session, text, is a query — EXPLAIN MULTIPLE applies) *)
let cases =
  [
    ("E1", (fun () -> fixture ()), e1, true);
    ("E2", (fun () -> fixture ()), e2, true);
    ("E3", (fun () -> fixture ()), e3, true);
    ("E4", (fun () -> fixture ~caps:comp_caps ()), e4, true);
    ("E5", (fun () -> fixture ()), e5, false);
    ("join3", make_fed3, join3, true);
  ]

(* ---- helpers ---------------------------------------------------------- *)

let translated session text =
  match M.translate session text with
  | Ok p -> Narada.Dol_pp.program_to_string p
  | Error m -> Alcotest.fail m

let explained session text =
  match M.exec session ("EXPLAIN MULTIPLE " ^ text) with
  | Ok (M.Info t) -> t
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m

let plan_counts session =
  let cs = M.cache_stats session in
  (cs.M.plan_hits, cs.M.plan_misses)

let counts = Alcotest.(pair int int)

(* [run] must plan the statement exactly once per call *)
let one_miss_then_hit session ~what run =
  let h, m = plan_counts session in
  run ();
  Alcotest.check counts (what ^ ": one miss") (h, m + 1) (plan_counts session);
  run ();
  Alcotest.check counts (what ^ ": then a hit") (h + 1, m + 1)
    (plan_counts session)

let translate_ok session text = ignore (translated session text)

(* ---- transparency ----------------------------------------------------- *)

(* planning the same text twice in one session yields exactly what a
   fresh session yields, and the repeat is served from the cache *)
let test_transparent (name, fresh, text, is_query) () =
  let session = fresh () in
  let first = translated session text in
  let hits = fst (plan_counts session) in
  let second = translated session text in
  Alcotest.(check string) (name ^ ": repeat translation") first second;
  Alcotest.(check int) (name ^ ": repeat is a hit") (hits + 1)
    (fst (plan_counts session));
  Alcotest.(check string) (name ^ ": fresh-session translation")
    (translated (fresh ()) text) second;
  if is_query then begin
    let want = explained (fresh ()) text in
    let hits = fst (plan_counts session) in
    let e1 = explained session text in
    let e2 = explained session text in
    Alcotest.(check string) (name ^ ": EXPLAIN MULTIPLE after translate") want
      e1;
    Alcotest.(check string) (name ^ ": repeat EXPLAIN MULTIPLE") want e2;
    Alcotest.(check int) (name ^ ": explains hit the plan") (hits + 2)
      (fst (plan_counts session))
  end

(* ---- one miss per key input ------------------------------------------- *)

let test_flags_miss () =
  let session = make_fed3 () in
  one_miss_then_hit session ~what:"first plan" (fun () ->
      translate_ok session join3);
  M.set_semijoin session false;
  one_miss_then_hit session ~what:"semijoin off" (fun () ->
      translate_ok session join3);
  M.set_dataflow session false;
  one_miss_then_hit session ~what:"dataflow off" (fun () ->
      translate_ok session join3);
  (* flipping back reaches the earlier key again *)
  M.set_dataflow session true;
  let h, m = plan_counts session in
  translate_ok session join3;
  Alcotest.check counts "earlier flags: a hit" (h + 1, m) (plan_counts session)

let test_incorporate_misses () =
  let session = fixture () in
  let q = "USE avis national SELECT %code FROM %" in
  one_miss_then_hit session ~what:"first plan" (fun () ->
      translate_ok session q);
  (match
     M.exec session
       "INCORPORATE SERVICE avis SITE site4 CONNECTMODE CONNECT COMMITMODE \
        NOCOMMIT"
   with
  | Ok (M.Info _) -> ()
  | Ok r -> Alcotest.fail (M.result_to_string r)
  | Error m -> Alcotest.fail m);
  one_miss_then_hit session ~what:"after INCORPORATE" (fun () ->
      translate_ok session q)

(* the same USE CURRENT text over a different session scope is a
   different statement *)
let test_use_current_scope_misses () =
  let session = fixture () in
  let q = "USE CURRENT SELECT %code FROM %" in
  translate_ok session "USE avis SELECT code FROM cars";
  one_miss_then_hit session ~what:"scope avis" (fun () ->
      translate_ok session q);
  translate_ok session "USE national SELECT vcode FROM vehicle";
  one_miss_then_hit session ~what:"scope national" (fun () ->
      translate_ok session q)

(* ---- multidatabase redefinition --------------------------------------- *)

(* DROP + CREATE MULTIDATABASE under the same name with other members:
   the same statement text must run over the new members *)
let test_multidatabase_redefinition () =
  let session = fixture () in
  let exec_ok text =
    match M.exec session text with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let dbs text =
    match exec_ok text with
    | M.Multitable mt -> Msql.Multitable.databases mt
    | r -> Alcotest.fail (M.result_to_string r)
  in
  let q = "USE rentals SELECT %code FROM %" in
  let mtx =
    {|BEGIN MULTITRANSACTION
  USE rentals
  LET cartab.cstat BE cars.carst vehicle.vstat
  UPDATE cartab SET cstat = cstat;
COMMIT
  national
END MULTITRANSACTION|}
  in
  let opens_avis () =
    Astring_contains.contains (translated session mtx) "OPEN avis"
  in
  ignore (exec_ok "CREATE MULTIDATABASE rentals AS avis national");
  Alcotest.(check (list string)) "first members" [ "avis"; "national" ] (dbs q);
  Alcotest.(check (list string)) "repeat" [ "avis"; "national" ] (dbs q);
  Alcotest.(check bool) "multitransaction over both" true (opens_avis ());
  Alcotest.(check bool) "repeat" true (opens_avis ());
  ignore (exec_ok "DROP MULTIDATABASE rentals");
  ignore (exec_ok "CREATE MULTIDATABASE rentals AS national");
  Alcotest.(check (list string)) "new members" [ "national" ] (dbs q);
  Alcotest.(check bool) "multitransaction over the new members" false
    (opens_avis ())

(* ---- metrics per use -------------------------------------------------- *)

type planning = {
  global : int;
  shipped : int;
  gated : int;
  nodes : int;
  edges : int;
  waves : int;
}

let planning m =
  {
    global = m.Metrics.plans_global;
    shipped = m.Metrics.subqueries_shipped;
    gated = m.Metrics.semijoins_applied + m.Metrics.semijoins_declined;
    nodes = m.Metrics.dataflow_nodes;
    edges = m.Metrics.dataflow_edges;
    waves = m.Metrics.dataflow_waves_planned;
  }

let planning_t =
  Alcotest.testable
    (fun fmt p ->
      Format.fprintf fmt
        "{global=%d; shipped=%d; gated=%d; nodes=%d; edges=%d; waves=%d}"
        p.global p.shipped p.gated p.nodes p.edges p.waves)
    ( = )

(* a hit re-notes the record's planning metrics: two runs count exactly
   twice what one run counts *)
let test_metrics_per_use () =
  let session = make_fed3 () in
  let m = M.metrics session in
  Metrics.reset m;
  let run () =
    match M.exec session join3 with
    | Ok (M.Multitable _) -> ()
    | Ok r -> Alcotest.fail (M.result_to_string r)
    | Error e -> Alcotest.fail e
  in
  run ();
  let once = planning m in
  Alcotest.(check int) "one global plan" 1 once.global;
  Alcotest.(check bool) "subqueries shipped" true (once.shipped > 0);
  Alcotest.(check bool) "semijoin gate decided" true (once.gated > 0);
  Alcotest.(check bool) "dataflow analyzed" true (once.nodes > 0);
  run ();
  Alcotest.check planning_t "second run doubles"
    {
      global = 2 * once.global;
      shipped = 2 * once.shipped;
      gated = 2 * once.gated;
      nodes = 2 * once.nodes;
      edges = 2 * once.edges;
      waves = 2 * once.waves;
    }
    (planning m)

let test_mtx_metrics_per_use () =
  let session = fixture () in
  let m = M.metrics session in
  Metrics.reset m;
  let run () =
    match M.exec session e5 with
    | Ok (M.Mtx_report _) -> ()
    | Ok r -> Alcotest.fail (M.result_to_string r)
    | Error e -> Alcotest.fail e
  in
  run ();
  Alcotest.(check int) "one multitransaction plan" 1 m.Metrics.plans_mtx;
  run ();
  Alcotest.(check int) "second run doubles" 2 m.Metrics.plans_mtx

let () =
  Alcotest.run "plan cache"
    [
      ( "transparency",
        List.map
          (fun ((name, _, _, _) as c) ->
            Alcotest.test_case name `Quick (test_transparent c))
          cases );
      ( "key inputs",
        [
          Alcotest.test_case "planner flags" `Quick test_flags_miss;
          Alcotest.test_case "INCORPORATE" `Quick test_incorporate_misses;
          Alcotest.test_case "USE CURRENT scope" `Quick
            test_use_current_scope_misses;
          Alcotest.test_case "multidatabase redefinition" `Quick
            test_multidatabase_redefinition;
        ] );
      ( "metrics per use",
        [
          Alcotest.test_case "global retrieval" `Quick test_metrics_per_use;
          Alcotest.test_case "multitransaction" `Quick test_mtx_metrics_per_use;
        ] );
    ]
