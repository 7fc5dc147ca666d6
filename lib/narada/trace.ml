(* Typed engine trace events. The human-readable trace is a {!render}ing
   of these events, while programs (tests, the metrics registry, the
   benches) observe structured values. *)

type verdict = Commit | Abort

type kind =
  | Opened of { service : string; site : string; alias : string; pooled : bool }
  | Open_failed of { service : string; reason : string; busy : bool }
  | Closed of { alias : string }
  | Status of { task : string; status : Dol_ast.status }
  | Branch of { cond : string; taken : bool }
  | Moved of {
      mname : string;
      src : string;  (* source site *)
      dst : string;  (* destination site *)
      dest_table : string;
      rows : int;
      bytes : int;  (* payload shipped on the wire; 0 on a cache hit *)
      reduced : bool;  (* semijoin rewrite was applied to the shipped query *)
      cached : bool;  (* served from the shipped-result cache *)
    }
  | Chunk of {  (* never emitted; kept while msqlbench matches it *)
      mname : string;
      src : string;
      dst : string;
      seq : int;  (* 1-based position in the stream *)
      total : int;  (* chunks in the stream *)
      rows : int;
      bytes : int;  (* this installment's payload *)
      window : int;  (* sender's in-flight credit window *)
    }
  | Retry of {
      op : string;
      site : string;
      attempt : int;
      delay_ms : float;
      reason : string;
      conflict : bool;
    }
  | Decision of { verdict : verdict; tasks : string list }
  | Recovered of { task : string; site : string; verdict : verdict }
  | Pool_stale of { service : string; site : string }
  | Cache of { layer : string; hit : bool; key : string }
  | Snapshot of { site : string; ts : int }
  | Conflict of { site : string; table : string; op : string }
  | Conflict_abort of { task : string; site : string }
  | Wave of {
      branches : int;
      crit_ms : float;  (* slowest branch: the wave's critical path *)
      serial_ms : float;  (* sum of branch durations: the serial estimate *)
    }
  | Dolstatus of int
  | Note of string

type event = { at_ms : float; kind : kind; tag : string option }

let make ?tag ~at_ms kind = { at_ms; kind; tag }
let with_tag tag ev = if ev.tag = None then { ev with tag = Some tag } else ev

let verdict_to_string = function Commit -> "COMMIT" | Abort -> "ABORT"

let status_of_verdict = function Commit -> Dol_ast.C | Abort -> Dol_ast.A

(* Renderings of the pre-existing events reproduce the engine's historical
   strings byte for byte: tests (and users) grep the textual trace. *)
let render_kind = function
  | Opened { service; site; alias; pooled } ->
      Printf.sprintf "OPEN %s AT %s AS %s%s" service site alias
        (if pooled then " (pooled)" else "")
  | Open_failed { service; reason; _ } ->
      Printf.sprintf "OPEN %s failed: %s" service reason
  | Closed { alias } -> Printf.sprintf "CLOSE %s" alias
  | Status { task; status } ->
      Printf.sprintf "%s -> %s" task (Dol_ast.status_to_string status)
  | Branch { cond; taken } ->
      Printf.sprintf "IF %s => %s" cond (if taken then "THEN" else "ELSE")
  | Moved { mname; src; dst; dest_table; rows; bytes; reduced; cached } ->
      Printf.sprintf "MOVE %s %s -> %s: %d row(s), %d byte(s) into %s%s%s"
        mname src dst rows bytes dest_table
        (if reduced then " (semijoin-reduced)" else "")
        (if cached then " (cache hit)" else "")
  | Chunk { mname; src; dst; seq; total; rows; bytes; window } ->
      Printf.sprintf "MOVE %s chunk %d/%d %s -> %s: %d row(s), %d byte(s) (window %d)"
        mname seq total src dst rows bytes window
  | Retry { op; site; attempt; delay_ms; reason; _ } ->
      Printf.sprintf "retry %s@%s attempt %d (+%.2f ms backoff): %s" op site
        attempt delay_ms reason
  | Decision { verdict; tasks } ->
      Printf.sprintf "2PC decision %s {%s}" (verdict_to_string verdict)
        (String.concat ", " tasks)
  | Recovered { task; verdict; _ } ->
      Printf.sprintf "recovered %s -> %s" task
        (Dol_ast.status_to_string (status_of_verdict verdict))
  | Pool_stale { service; site } ->
      Printf.sprintf "pool: discarded stale connection to %s at %s" service
        site
  | Cache { layer; hit; key } ->
      Printf.sprintf "%s cache %s: %s" layer (if hit then "hit" else "miss")
        key
  | Snapshot { site; ts } -> Printf.sprintf "snapshot %d acquired at %s" ts site
  | Conflict { site; table; op } ->
      Printf.sprintf "write-write conflict on %s at %s (%s)" table site op
  | Conflict_abort { task; site } ->
      Printf.sprintf "%s aborted: lost write-write race at %s" task site
  | Wave { branches; crit_ms; serial_ms } ->
      Printf.sprintf "wave: %d branch(es), %.2f ms critical / %.2f ms serial"
        branches crit_ms serial_ms
  | Dolstatus n -> Printf.sprintf "DOLSTATUS = %d" n
  | Note m -> m

let render e = Printf.sprintf "[%8.2f ms] %s" e.at_ms (render_kind e.kind)
