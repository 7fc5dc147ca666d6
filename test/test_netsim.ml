module World = Netsim.World
module Site = Netsim.Site

let make_world () =
  let w = World.create () in
  World.add_site w (Site.make ~latency_ms:10.0 ~per_byte_ms:0.001 "alpha");
  World.add_site w (Site.make ~latency_ms:20.0 ~per_byte_ms:0.002 "beta");
  w

let test_site_cost () =
  let s = Site.make ~latency_ms:5.0 ~per_byte_ms:0.01 "x" in
  Alcotest.(check (float 1e-9)) "cost" 7.0 (Site.message_cost_ms s ~bytes:200)

let test_send_advances_clock () =
  let w = make_world () in
  World.send w ~src:"mdbs" ~dst:"alpha" ~bytes:1000;
  (* mdbs is free; alpha: 10 + 1000*0.001 = 11 *)
  Alcotest.(check (float 1e-9)) "clock" 11.0 (World.now_ms w);
  World.send w ~src:"alpha" ~dst:"beta" ~bytes:0;
  Alcotest.(check (float 1e-9)) "clock2" (11.0 +. 30.0) (World.now_ms w)

let test_stats () =
  let w = make_world () in
  World.send w ~src:"mdbs" ~dst:"alpha" ~bytes:100;
  World.send w ~src:"mdbs" ~dst:"beta" ~bytes:50;
  let st = World.stats w in
  Alcotest.(check int) "messages" 2 st.World.messages;
  Alcotest.(check int) "bytes" 150 st.World.bytes_moved;
  World.reset_stats w;
  Alcotest.(check int) "reset" 0 (World.stats w).World.messages

let test_unknown_site () =
  let w = make_world () in
  Alcotest.check_raises "unknown" (World.Unknown_site "gamma") (fun () ->
      World.send w ~src:"mdbs" ~dst:"gamma" ~bytes:1)

let test_site_down () =
  let w = make_world () in
  World.set_down w "alpha" true;
  Alcotest.(check bool) "down" true (World.is_down w "alpha");
  Alcotest.check_raises "send fails" (World.Site_down "alpha") (fun () ->
      World.send w ~src:"mdbs" ~dst:"alpha" ~bytes:1);
  World.set_down w "alpha" false;
  World.send w ~src:"mdbs" ~dst:"alpha" ~bytes:1;
  Alcotest.(check bool) "recovered" true (World.now_ms w > 0.0)

(* a chunk-streamed message is one logical send: against [send] of the
   summed bytes it charges the same messages, bytes, per-site ledgers and
   clock, and under one seeded loss source the same sends are lost *)
let test_send_chunked_matches_send () =
  let lossy () =
    let w = make_world () in
    World.set_loss w ~seed:7 ~prob:0.3;
    w
  in
  let chunked = lossy () and whole = lossy () in
  let streams =
    [ [ 100; 200; 50 ]; [ 0 ]; [ 512; 512; 512; 17 ]; [ 1 ]; [ 300; 0; 300 ];
      [ 4096 ]; [ 64; 64 ]; [ 10; 20; 30; 40 ]; [ 999 ]; [ 7; 7; 7 ] ]
  in
  let lost = ref 0 and delivered = ref 0 in
  List.iteri
    (fun k chunks ->
      let tag fmt = Printf.sprintf fmt k in
      let src, dst = if k mod 2 = 0 then ("alpha", "beta") else ("beta", "alpha") in
      let bytes = List.fold_left ( + ) 0 chunks in
      let a =
        match World.send_chunked chunked ~src ~dst ~chunks with
        | times -> Some times
        | exception World.Lost_message _ -> None
      in
      let b =
        match World.send whole ~src ~dst ~bytes with
        | () -> true
        | exception World.Lost_message _ -> false
      in
      Alcotest.(check bool) (tag "send %d: same loss draw") b (a <> None);
      Alcotest.(check (float 1e-9)) (tag "send %d: same clock")
        (World.now_ms whole) (World.now_ms chunked);
      match a with
      | None -> incr lost
      | Some times ->
          incr delivered;
          Alcotest.(check int) (tag "send %d: one instant per chunk")
            (List.length chunks) (List.length times);
          let rec monotone = function
            | x :: (y :: _ as rest) -> x <= y && monotone rest
            | _ -> true
          in
          Alcotest.(check bool) (tag "send %d: instants monotone") true
            (monotone times);
          Alcotest.(check (float 1e-9)) (tag "send %d: last instant is completion")
            (World.now_ms chunked)
            (List.nth times (List.length times - 1)))
    streams;
  Alcotest.(check bool) "the seed loses some sends and delivers others" true
    (!lost > 0 && !delivered > 0);
  let st w =
    let s = World.stats w in
    (s.World.messages, s.World.bytes_moved, s.World.lost)
  in
  Alcotest.(check (triple int int int)) "stats" (st whole) (st chunked);
  let ledger w =
    List.map
      (fun (name, (ss : World.site_stat)) ->
        (name, [ ss.World.sent_msgs; ss.World.sent_bytes; ss.World.recv_msgs;
                 ss.World.recv_bytes ]))
      (World.per_site w)
  in
  Alcotest.(check (list (pair string (list int)))) "per-site ledger"
    (ledger whole) (ledger chunked)

let test_parallel_max_semantics () =
  let w = make_world () in
  let slow () = World.advance_ms w 100.0 in
  let fast () = World.advance_ms w 10.0 in
  ignore (World.parallel w [ slow; fast; fast ]);
  Alcotest.(check (float 1e-9)) "max not sum" 100.0 (World.now_ms w)

let test_parallel_sequential_contrast () =
  let w = make_world () in
  let task () = World.advance_ms w 50.0 in
  task (); task ();
  Alcotest.(check (float 1e-9)) "sequential sums" 100.0 (World.now_ms w);
  World.reset_clock w;
  ignore (World.parallel w [ task; task ]);
  Alcotest.(check (float 1e-9)) "parallel maxes" 50.0 (World.now_ms w)

let test_parallel_results_in_order () =
  let w = make_world () in
  let r = World.parallel w [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] r

(* each world keeps its own frame stack: a branch of [a] that runs inside
   [b]'s block still charges [a]'s frame *)
let test_parallel_cross_world () =
  let a = World.create () and b = World.create () in
  ignore
    (World.parallel a
       [ (fun () -> ignore (World.parallel b [ (fun () -> World.advance_ms a 5.0) ])) ]);
  Alcotest.(check (float 1e-9)) "a keeps its branch time" 5.0 (World.now_ms a);
  Alcotest.(check (float 1e-9)) "b untouched" 0.0 (World.now_ms b)

(* a raising branch still leaves its frame: the enclosing clock is the
   one that advances afterwards *)
let test_parallel_raising_branch_pops_frame () =
  let w = make_world () in
  World.advance_ms w 10.0;
  let boom () =
    World.advance_ms w 3.0;
    failwith "boom"
  in
  (try ignore (World.parallel w [ boom ]) with Failure _ -> ());
  Alcotest.(check (float 1e-9)) "top-level clock unchanged" 10.0 (World.now_ms w);
  ignore
    (World.parallel w
       [
         (fun () ->
           World.advance_ms w 2.0;
           (try ignore (World.parallel w [ boom ]) with Failure _ -> ());
           Alcotest.(check (float 1e-9)) "enclosing frame unchanged" 12.0
             (World.now_ms w);
           World.advance_ms w 1.0);
       ]);
  Alcotest.(check (float 1e-9)) "enclosing frame charged" 13.0 (World.now_ms w)

let prop_parallel_le_sequential =
  let gen = QCheck.Gen.(list_size (1 -- 6) (float_bound_exclusive 50.0)) in
  QCheck.Test.make ~name:"parallel time <= sequential time" ~count:100
    (QCheck.make gen) (fun durations ->
      let w = World.create () in
      List.iter (fun d -> World.advance_ms w d) durations;
      let seq = World.now_ms w in
      World.reset_clock w;
      ignore
        (World.parallel w (List.map (fun d () -> World.advance_ms w d) durations));
      World.now_ms w <= seq +. 1e-9)

let () =
  Alcotest.run "netsim"
    [
      ( "world",
        [
          Alcotest.test_case "site cost" `Quick test_site_cost;
          Alcotest.test_case "send advances clock" `Quick test_send_advances_clock;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "unknown site" `Quick test_unknown_site;
          Alcotest.test_case "site down" `Quick test_site_down;
          Alcotest.test_case "chunked send charges as one send" `Quick
            test_send_chunked_matches_send;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "max semantics" `Quick test_parallel_max_semantics;
          Alcotest.test_case "vs sequential" `Quick test_parallel_sequential_contrast;
          Alcotest.test_case "result order" `Quick test_parallel_results_in_order;
          Alcotest.test_case "cross-world branch" `Quick test_parallel_cross_world;
          Alcotest.test_case "raising branch pops its frame" `Quick
            test_parallel_raising_branch_pops_frame;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_parallel_le_sequential ] );
    ]
