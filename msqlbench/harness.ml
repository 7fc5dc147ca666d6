(* Measurement plumbing shared by the untraced and the traced benchmark:
   the clock, growable sample buffers, the percentile and segment-median
   rules, the GC fence and a small JSON writer. *)

(* seconds on the monotonic clock, with nanosecond resolution: a
   statement of paper_2pc takes under 100 us, where gettimeofday's
   microsecond steps would make its percentiles repeat exactly *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- growable float buffer ------------------------------------------------ *)

(* Samples live in a Bigarray, outside the OCaml heap, so recording them
   does not move the heap figures the benchmark reports. *)
module Fbuf = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout (1 lsl 16); n = 0 }

  let push b x =
    if b.n = Array1.dim b.a then begin
      let a = Array1.create float64 c_layout (2 * b.n) in
      Array1.blit b.a (Array1.sub a 0 b.n);
      b.a <- a
    end;
    Array1.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = Array1.get b.a i

  let sorted b =
    let a = Float.Array.init b.n (Array1.get b.a) in
    Float.Array.sort compare a;
    a
end

(* ---- order statistics ----------------------------------------------------- *)

(* nearest-rank percentile of an ascending array *)
let percentile (sorted : Float.Array.t) p =
  let n = Float.Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

(* The highest percentile of the ladder that still has at least ten
   samples beyond it: a tail figure is only reported where the sample
   supports it. *)
let tail_percentile (sorted : Float.Array.t) =
  let n = Float.Array.length sorted in
  let supported p =
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    n - rank >= 10
  in
  match List.find_opt supported [ 99.9; 99.; 95.; 90.; 75.; 50. ] with
  | Some p -> Some (p, percentile sorted p)
  | None -> None

let median_of (xs : float list) =
  let a = Float.Array.of_list xs in
  Float.Array.sort compare a;
  let n = Float.Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then Float.Array.get a (n / 2)
  else (Float.Array.get a ((n / 2) - 1) +. Float.Array.get a (n / 2)) /. 2.

(* ---- host speed ------------------------------------------------------------ *)

(* The benchmark runs on a shared VM whose speed drifts by up to 2x, in
   stretches from a fraction of a second to minutes, with CPU time
   tracking wall time. Every 20 ms of a timed phase the benchmark runs a
   probe: fixed work on its own data (a hash table of string keys, a list
   sort), which no change to the program can speed up or slow down. Its
   time, against [Host.ref_s], tells how fast the host ran just then. *)
module Host = struct
  (* the probe's median time on the reference box when it is quiet *)
  let ref_s = 450e-6
  let every = 0.02

  let work () =
    let h = Hashtbl.create 64 in
    for i = 0 to 999 do
      Hashtbl.replace h (string_of_int (i * 7919 mod 1000)) i
    done;
    let l = List.sort compare (List.init 1000 (fun i -> i * 7919 mod 1000)) in
    List.fold_left (fun acc x -> acc + Hashtbl.find h (string_of_int x)) 0 l

  type t = { at : Fbuf.t; dur : Fbuf.t; mutable last : float }

  let create () = { at = Fbuf.create (); dur = Fbuf.create (); last = neg_infinity }

  (* Run the probe if [every] seconds have passed since the last one.
     [at] is the position in the phase's own clock; the caller leaves
     the time the probe takes out of its figures. *)
  let tick h ~at =
    let t0 = now () in
    if t0 -. h.last >= every then begin
      ignore (Sys.opaque_identity (work ()));
      let t1 = now () in
      Fbuf.push h.at at;
      Fbuf.push h.dur (t1 -. t0);
      h.last <- t1
    end
end

(* ---- slices ------------------------------------------------------------------ *)

(* The wall-clock figures are taken per slice of the phase: equal slices
   of about half a second. Each slice's figure is scaled to the reference
   speed by the median probe time in that slice, and the median over the
   slices is reported. Scaling removes the drift the probe sees; the
   median removes what a slice alone saw. Positions are seconds from the
   start of the phase, which lasted [span] seconds. *)
let slice_s = 0.5

type slices = { k : int; span : float; scale : float array }

let slice_of s t =
  max 0 (min (s.k - 1) (int_of_float (t /. (s.span /. float_of_int s.k))))

(* [scale.(i)]: reference time over the host's time in slice i; a slice
   without a probe takes the phase's median *)
let slices (host : Host.t) ~span =
  let k = max 1 (int_of_float (span /. slice_s)) in
  let s = { k; span; scale = Array.make k nan } in
  let per = Array.make k [] and all = ref [] in
  for i = 0 to Fbuf.length host.Host.dur - 1 do
    let d = Fbuf.get host.Host.dur i in
    let j = slice_of s (Fbuf.get host.Host.at i) in
    per.(j) <- d :: per.(j);
    all := d :: !all
  done;
  let whole = if !all = [] then Host.ref_s else median_of !all in
  Array.iteri
    (fun j l -> s.scale.(j) <- Host.ref_s /. (if l = [] then whole else median_of l))
    per;
  s

(* Without the scaling: the figures as the wall clock read them. *)
let unscaled s = { s with scale = Array.make s.k 1.0 }

(* completions per second at reference speed, [ends] holding completion
   times *)
let slice_median_rate s (ends : Fbuf.t) =
  let counts = Array.make s.k 0 in
  for i = 0 to Fbuf.length ends - 1 do
    let j = slice_of s (Fbuf.get ends i) in
    counts.(j) <- counts.(j) + 1
  done;
  let len = s.span /. float_of_int s.k in
  median_of
    (List.init s.k (fun j -> float_of_int counts.(j) /. len /. s.scale.(j)))

(* the [p]th percentile of the durations [xs] at reference speed, the
   sample i taken at [at.(i)] *)
let slice_median_percentile s (at : Fbuf.t) (xs : Fbuf.t) p =
  let per = Array.make s.k [] in
  for i = 0 to Fbuf.length xs - 1 do
    let j = slice_of s (Fbuf.get at i) in
    per.(j) <- Fbuf.get xs i :: per.(j)
  done;
  List.init s.k (fun j ->
      match per.(j) with
      | [] -> None
      | l ->
          let a = Float.Array.of_list l in
          Float.Array.sort compare a;
          Some (percentile a p *. s.scale.(j)))
  |> List.filter_map Fun.id
  |> median_of

(* ---- GC ------------------------------------------------------------------- *)

(* a full compaction, so a timed phase starts with no garbage owed by
   earlier phases *)
let gc_fence () = Gc.compact ()

(* words allocated so far: minor + major - promoted (a promoted word was
   first counted as minor) *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* the highest the major heap has been in this process *)
let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* ---- JSON ----------------------------------------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

let environment () =
  Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Str Sys.ocaml_version);
    ]

(* ---- metrics and the result line ------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let print_metrics ms =
  List.iter (fun m -> Printf.printf "  %-32s %16.6f %s\n" m.name m.value m.unit_) ms

let metrics_json ms =
  Obj
    (List.map
       (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
       ms)

(* The contract line: the last line of standard output. *)
let result_line ~correct ~attempted ~failed ms =
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", metrics_json ms);
       ])

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* ---- command line --------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  stmts : int option;  (* fixed statement count instead of a time budget *)
  out : string option;
  trace_out : string option;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let stmts = ref None and out = ref None and trace_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--stmts", Arg.Int (fun n -> stmts := Some n),
       "N run exactly N timed statements instead of --seconds");
      ("--out", Arg.String (fun s -> out := Some s), "FILE write the full JSON record");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s),
       "FILE write the span list (traced binary only)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "msql benchmark";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    stmts = !stmts;
    out = !out;
    trace_out = !trace_out;
  }
