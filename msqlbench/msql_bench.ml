(* End-to-end MSQL benchmark, untraced: one workload through the entry
   points users call — [Msession.exec] for a single session,
   [Server.submit]/[Server.step_round] for the multi-session server —
   printing every end-to-end metric with its unit, checking every
   result, and ending with one JSON line.

     msql_bench.exe --workload NAME --seed N (--seconds S | --stmts N)
                    [--out FILE] *)

open Harness
module W = Workloads
module M = Msql.Msession

(* The end-to-end metrics, in BENCHMARK.json's order; the wall-clock
   ones are taken over the slices [s]. *)
let end_to_end (r : Runner.run) s ~setup_s =
  let lat p = slice_median_percentile s r.ends r.lat p in
  let per_stmt x = x /. float_of_int (max 1 r.det_div) in
  [
    metric "stmts_per_s" "stmt/s" (slice_median_rate s r.ends);
    metric "lat_p50_ms" "ms" (lat 50.);
    metric "lat_p90_ms" "ms" (lat 90.);
    metric "virt_ms_per_stmt" "ms" (r.det_virt_ms /. float_of_int (max 1 r.det_count));
    metric "bytes_per_stmt" "B" (per_stmt (float_of_int r.det_bytes));
    metric "msgs_per_stmt" "msg" (per_stmt (float_of_int r.det_msgs));
    metric "alloc_kw_per_stmt" "kword" (per_stmt r.det_alloc /. 1000.);
    metric "heap_peak_mb" "MB" r.heap_mb;
    metric "setup_s" "s" setup_s;
  ]

let wall_clock = [ "stmts_per_s"; "lat_p50_ms"; "lat_p90_ms"; "setup_s" ]

(* Report the metrics scaled to reference speed, and the wall-clock ones
   also as the clock read them. *)
let report a w (r : Runner.run) make =
  let setup_s, setup_unscaled = Runner.setup_time make in
  let s = slices r.host ~span:r.span in
  let unscaled =
    end_to_end r (unscaled s) ~setup_s:setup_unscaled
    |> List.filter (fun m -> List.mem m.name wall_clock)
  in
  Runner.report a w ~traced:false ~unscaled r (end_to_end r s ~setup_s)

let exec session (st : W.stmt) = M.exec session st.W.sql

let () =
  let a = parse_args () in
  let w = Runner.find_workload a in
  let budget = Runner.budget_of a in
  match w.W.kind with
  | W.Single make ->
      let fx = make () in
      let r = Runner.run_single ~exec w fx budget ~seed:a.seed in
      Runner.check_oracle w r fx.Msql.Fixtures.directory;
      report a w r make
  | W.Server make ->
      let ((_, directory, _) as s) = make () in
      let r, counts =
        Runner.run_server ~step:Msql.Server.step_round w s budget ~seed:a.seed
      in
      Runner.check_oracle w r directory;
      Runner.check_replay ~exec w r ~seed:a.seed ~counts ~server_directory:directory
        (W.hub_session ~rows:W.zipf_rows);
      report a w r make
