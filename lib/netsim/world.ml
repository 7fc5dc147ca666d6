(* An outage is a window of virtual time during which a site is
   unreachable; [until_ms = infinity] models a permanent failure. Recovery
   is implicit: the site answers again once the clock passes [until_ms]. *)
type outage = { from_ms : float; until_ms : float }

type loss = { prob : float; rng : Random.State.t }

type t = {
  sites : (string, Site.t) Hashtbl.t;
  outages : (string, outage list) Hashtbl.t;
  down_history : (string, float) Hashtbl.t;
      (* site -> latest virtual instant the site is known to have been
         down, over windows cleared with set_down/clear_faults; live
         windows are consulted directly. Lets connection pools ask "was
         this site ever down since I last used it?" after the window
         itself is gone. *)
  mutable clock_ms : float;
  stats : stats;
  site_stats : (string, site_stat) Hashtbl.t;
      (* per-site ledger of delivered traffic; the sums over all sites
         equal [stats.messages]/[stats.bytes_moved] *)
  mutable default_loss : loss option;
  lose_next : (string * string, int) Hashtbl.t;  (* queued one-shot losses *)
  mutable frames : frame list;  (* open clock frames, innermost first *)
}

and frame = { mutable fclock : float }

and stats = {
  mutable messages : int;
  mutable bytes_moved : int;
  mutable lost : int;
}

and site_stat = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
}

exception Unknown_site of string
exception Site_down of string
exception Lost_message of string * string

let key = String.lowercase_ascii

let create () =
  let t =
    {
      sites = Hashtbl.create 16;
      outages = Hashtbl.create 4;
      down_history = Hashtbl.create 4;
      clock_ms = 0.0;
      stats = { messages = 0; bytes_moved = 0; lost = 0 };
      site_stats = Hashtbl.create 8;
      default_loss = None;
      lose_next = Hashtbl.create 4;
      frames = [];
    }
  in
  Hashtbl.replace t.sites (key "mdbs")
    (Site.make ~latency_ms:0.0 ~per_byte_ms:0.0 "mdbs");
  t

let add_site t site = Hashtbl.replace t.sites (key site.Site.site_name) site

let find_site t name =
  match Hashtbl.find_opt t.sites (key name) with
  | Some s -> s
  | None -> raise (Unknown_site name)

(* ---- clock frames --------------------------------------------------------
   A frame is a private view of the virtual clock for one logically
   concurrent branch: it starts at the branch's fork instant and advances
   independently of every sibling. The [parallel] combinator enters and
   leaves one frame per branch. Each world keeps its own stack, so a
   branch of one world that runs inside another world's block still
   charges its own world's frame. Frames nest (a PARBEGIN inside a
   PARBEGIN forks from the enclosing frame's clock). *)

let now_ms t = match t.frames with f :: _ -> f.fclock | [] -> t.clock_ms

let set_now t v =
  match t.frames with f :: _ -> f.fclock <- v | [] -> t.clock_ms <- v

let advance_ms t d = set_now t (now_ms t +. d)

let in_frame t ~start_ms f =
  let frame = { fclock = start_ms } in
  let outer = t.frames in
  t.frames <- frame :: outer;
  Fun.protect
    ~finally:(fun () -> t.frames <- outer)
    (fun () ->
      let r = f () in
      (r, frame.fclock))

let reset_clock t =
  t.clock_ms <- 0.0;
  (* history instants belong to the old timeline *)
  Hashtbl.reset t.down_history
let stats t = t.stats

let reset_stats t =
  t.stats.messages <- 0;
  t.stats.bytes_moved <- 0;
  t.stats.lost <- 0;
  Hashtbl.reset t.site_stats

let site_stat_of t name =
  let k = key name in
  match Hashtbl.find_opt t.site_stats k with
  | Some s -> s
  | None ->
      let s = { sent_msgs = 0; sent_bytes = 0; recv_msgs = 0; recv_bytes = 0 } in
      Hashtbl.replace t.site_stats k s;
      s

let per_site t =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.site_stats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- failures ------------------------------------------------------------ *)

let add_outage t name o =
  ignore (find_site t name);
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.outages (key name)) in
  Hashtbl.replace t.outages (key name) (o :: prev)

let note_down_until t name inst =
  let prev =
    Option.value ~default:neg_infinity
      (Hashtbl.find_opt t.down_history (key name))
  in
  if inst > prev then Hashtbl.replace t.down_history (key name) inst

(* record the portion of [name]'s windows that already lies in the past,
   before those windows are discarded *)
let remember_past_windows t name =
  match Hashtbl.find_opt t.outages (key name) with
  | None -> ()
  | Some windows ->
      List.iter
        (fun o ->
          if o.from_ms <= now_ms t && o.until_ms > o.from_ms then
            note_down_until t name (min o.until_ms (now_ms t)))
        windows

let set_down t name down =
  ignore (find_site t name);
  if down then
    Hashtbl.replace t.outages (key name)
      [ { from_ms = neg_infinity; until_ms = infinity } ]
  else begin
    (* clearing ends any ongoing outage now; the fact that the site was
       down until this instant stays observable to down_during *)
    remember_past_windows t name;
    Hashtbl.remove t.outages (key name)
  end

let set_down_until t name until_ms =
  add_outage t name { from_ms = now_ms t; until_ms }

let schedule_outage t name ~from_ms ~until_ms =
  add_outage t name { from_ms; until_ms }

(* Pure: a read of the outage schedule at the caller's (frame) clock.
   Expired windows are NOT pruned here — pruning driven by one parallel
   branch's clock could discard a window still live at a sibling branch's
   earlier instant. Windows are only retired by the explicit clears
   (set_down false, clear_faults), which record them in down_history. *)
let is_down t name =
  match Hashtbl.find_opt t.outages (key name) with
  | None -> false
  | Some windows ->
      List.exists
        (fun o -> o.from_ms <= now_ms t && now_ms t < o.until_ms)
        windows

let down_during t name ~since_ms =
  (match Hashtbl.find_opt t.down_history (key name) with
  | Some e -> e >= since_ms
  | None -> false)
  ||
  match Hashtbl.find_opt t.outages (key name) with
  | None -> false
  | Some windows ->
      List.exists
        (fun o -> o.from_ms <= now_ms t && o.until_ms >= since_ms)
        windows

let next_recovery_ms t name =
  match Hashtbl.find_opt t.outages (key name) with
  | None -> None
  | Some windows -> (
      match
        List.filter
          (fun o -> o.from_ms <= now_ms t && now_ms t < o.until_ms)
          windows
      with
      | [] -> None
      | live ->
          let u = List.fold_left (fun acc o -> max acc o.until_ms) neg_infinity live in
          if u = infinity then Some infinity else Some u)

let mk_loss ~seed ~prob = { prob; rng = Random.State.make [| seed |] }

let set_loss t ~seed ~prob =
  t.default_loss <- (if prob <= 0.0 then None else Some (mk_loss ~seed ~prob))

let lose_next t ~src ~dst =
  let k = (key src, key dst) in
  let n = Option.value ~default:0 (Hashtbl.find_opt t.lose_next k) in
  Hashtbl.replace t.lose_next k (n + 1)

let clear_faults t =
  Hashtbl.iter (fun name _ -> remember_past_windows t name)
    (Hashtbl.copy t.outages);
  Hashtbl.reset t.outages;
  Hashtbl.reset t.lose_next;
  t.default_loss <- None

(* one PRNG draw per message keeps chaos runs replayable: the firing
   sequence is a pure function of the seed and the message sequence,
   independent of wall time *)
let message_lost t ~src ~dst =
  let k = (key src, key dst) in
  match Hashtbl.find_opt t.lose_next k with
  | Some n ->
      if n <= 1 then Hashtbl.remove t.lose_next k
      else Hashtbl.replace t.lose_next k (n - 1);
      true
  | None -> (
      match t.default_loss with
      | Some l -> Random.State.float l.rng 1.0 < l.prob
      | None -> false)

let send t ~src ~dst ~bytes =
  let s = find_site t src and d = find_site t dst in
  if is_down t src then raise (Site_down src);
  if is_down t dst then raise (Site_down dst);
  if message_lost t ~src ~dst then begin
    (* the message left the wire and vanished: the sender still pays the
       send cost (and will pay again to detect the loss via its retry
       timeout), but nothing arrives *)
    advance_ms t (Site.message_cost_ms s ~bytes);
    t.stats.lost <- t.stats.lost + 1;
    raise (Lost_message (src, dst))
  end;
  advance_ms t (Site.message_cost_ms s ~bytes +. Site.message_cost_ms d ~bytes);
  t.stats.messages <- t.stats.messages + 1;
  t.stats.bytes_moved <- t.stats.bytes_moved + bytes;
  (* only delivered traffic enters the per-site ledger, mirroring the
     global counters above *)
  let ss = site_stat_of t src and ds = site_stat_of t dst in
  ss.sent_msgs <- ss.sent_msgs + 1;
  ss.sent_bytes <- ss.sent_bytes + bytes;
  ds.recv_msgs <- ds.recv_msgs + 1;
  ds.recv_bytes <- ds.recv_bytes + bytes

(* A chunk-streamed logical message: [send] of the total bytes, so its
   failure semantics, loss draw, message count, bytes, per-site ledgers
   and clock advance are those of one message — chunking is a transport
   detail below the accounting granularity, which is what makes results
   and metrics chunk-size-invariant by construction. The returned list
   gives each chunk's completion instant: the linear serialization
   schedule of the send's cost over the cumulative payload, for per-chunk
   trace events. An empty/zero-byte stream completes at [t0 + cost] like
   the monolithic send. *)
let send_chunked t ~src ~dst ~chunks =
  let total = List.fold_left ( + ) 0 chunks in
  let t0 = now_ms t in
  send t ~src ~dst ~bytes:total;
  let cost = now_ms t -. t0 in
  let _, rev_times =
    List.fold_left
      (fun (cum, acc) b ->
        let cum = cum + b in
        let frac =
          if total = 0 then 1.0 else float_of_int cum /. float_of_int total
        in
        (cum, (t0 +. (frac *. cost)) :: acc))
      (0, []) chunks
  in
  List.rev rev_times

(* [parallel] plus each branch's individual virtual duration, in thunk
   order — the dataflow scheduler's wave accounting (critical path = max,
   serial estimate = sum) reads these without re-deriving frames. *)
let parallel_timed t thunks =
  let t0 = now_ms t in
  let finishes = ref [] in
  let results =
    List.map
      (fun thunk ->
        let r, fin = in_frame t ~start_ms:t0 thunk in
        finishes := fin :: !finishes;
        r)
      thunks
  in
  set_now t (List.fold_left max t0 !finishes);
  (results, List.rev_map (fun fin -> fin -. t0) !finishes)

let parallel t thunks = fst (parallel_timed t thunks)
