(* Dataflow analysis of DOL programs.

   A DOL program is a statement list the engine executes in order; only
   explicit [PARBEGIN] blocks overlap in virtual time. This module derives
   the overlap automatically: it computes a per-statement read/write
   summary (connection aliases, task-status dataflow, MOVE destination
   tables, order-sensitive globals), builds the dependency DAG over a
   statement sequence, and regroups the sequence into maximal waves of
   pairwise-independent statements.

   Wave formation is deliberately *order-preserving*: a wave is a maximal
   run of consecutive statements with no dependency among them, wrapped in
   one [Parallel] block. Under the engine's sequential combinator a
   [Parallel] block executes its branches in declaration order (each in
   its own virtual-clock frame starting at the block's t0, finish times
   max-merged), so the scheduled program performs *exactly the same
   effects in exactly the same order* as the serial one — statuses,
   results, database writes, message sequence and loss draws are all
   byte-identical; only the virtual-time accounting changes. *)

open Dol_ast

let akey = String.lowercase_ascii

(* ---- per-statement read/write summary ------------------------------------- *)

type rw = {
  status_reads : string list;  (* task/move statuses consulted *)
  status_writes : string list; (* statuses (and namespaced resources) set *)
  aliases : (string * bool) list;
      (* connection aliases used; [true] = shareable MOVE-destination use
         (concurrent MOVEs may funnel into one destination alias — the
         per-connection mutex serializes the receiving side), [false] =
         exclusive use (OPEN/CLOSE lifecycle, task session, MOVE source) *)
  decision : bool;  (* COMMIT/ABORT: appends to the global recovery log *)
  dolstatus : bool; (* SET DOLSTATUS: last-writer-wins global *)
}

let rw_empty =
  {
    status_reads = [];
    status_writes = [];
    aliases = [];
    decision = false;
    dolstatus = false;
  }

let rw_union a b =
  {
    status_reads = a.status_reads @ b.status_reads;
    status_writes = a.status_writes @ b.status_writes;
    aliases = a.aliases @ b.aliases;
    decision = a.decision || b.decision;
    dolstatus = a.dolstatus || b.dolstatus;
  }

let rec cond_reads = function
  | Status_is (t, _) -> [ akey t ]
  | Not c -> cond_reads c
  | And (a, b) | Or (a, b) -> cond_reads a @ cond_reads b

(* name -> connection alias, for resolving which connection a COMMIT/ABORT
   list touches; collected over the whole program, nested blocks included *)
let rec collect_targets tbl = function
  | Task t -> Hashtbl.replace tbl (akey t.tname) (akey t.target)
  | Move m -> Hashtbl.replace tbl (akey m.mname) (akey m.src)
  | Comp c -> Hashtbl.replace tbl (akey c.cname) (akey c.target)
  | Parallel ss -> List.iter (collect_targets tbl) ss
  | If (_, a, b) ->
      List.iter (collect_targets tbl) a;
      List.iter (collect_targets tbl) b
  | Open _ | Close _ | Commit_tasks _ | Abort_tasks _ | Set_status _ -> ()

let rec stmt_rw tmap = function
  | Open { alias; _ } -> { rw_empty with aliases = [ (akey alias, false) ] }
  | Close als ->
      { rw_empty with aliases = List.map (fun a -> (akey a, false)) als }
  | Task t ->
      {
        rw_empty with
        status_writes = [ akey t.tname ];
        aliases = [ (akey t.target, false) ];
      }
  | Move m ->
      {
        rw_empty with
        status_writes =
          [
            akey m.mname;
            (* two MOVEs landing in the same destination table must not
               overlap; the ':' makes the key disjoint from task names *)
            "tbl:" ^ akey m.dst ^ ":" ^ akey m.dest_table;
          ];
        aliases = [ (akey m.src, false); (akey m.dst, true) ];
      }
  | Comp c ->
      let compensated =
        Option.fold ~none:[] ~some:(fun t -> [ akey t ]) c.compensates
      in
      {
        rw_empty with
        status_reads = compensated;
        (* a firing compensation rewrites the compensated status to X *)
        status_writes = akey c.cname :: compensated;
        aliases = [ (akey c.target, false) ];
      }
  | If (c, a, b) ->
      let body =
        List.fold_left
          (fun acc s -> rw_union acc (stmt_rw tmap s))
          rw_empty (a @ b)
      in
      { body with status_reads = cond_reads c @ body.status_reads }
  | Commit_tasks ns | Abort_tasks ns ->
      let ns = List.map akey ns in
      {
        rw_empty with
        status_reads = ns;
        status_writes = ns;
        aliases =
          List.filter_map
            (fun n ->
              Option.map (fun a -> (a, false)) (Hashtbl.find_opt tmap n))
            ns;
        decision = true;
      }
  | Parallel ss ->
      List.fold_left (fun acc s -> rw_union acc (stmt_rw tmap s)) rw_empty ss
  | Set_status _ -> { rw_empty with dolstatus = true }

(* Do two statements interfere? Order-sensitive whenever one writes what
   the other reads or writes, they share a connection in a non-shareable
   way, or both touch an order-sensitive global. *)
let conflicts a b =
  let inter xs ys = List.exists (fun x -> List.mem x ys) xs in
  inter a.status_writes b.status_writes
  || inter a.status_writes b.status_reads
  || inter a.status_reads b.status_writes
  || (a.decision && b.decision)
  || (a.dolstatus && b.dolstatus)
  || List.exists
       (fun (al, a_shared) ->
         List.exists
           (fun (bl, b_shared) ->
             String.equal al bl && not (a_shared && b_shared))
           b.aliases)
       a.aliases

(* ---- DAG over one statement sequence --------------------------------------- *)

type node = { idx : int; stmt : stmt; rw : rw }

type t = {
  nodes : node array;
  edges : (int * int) list;  (* transitively reduced, i < j *)
  waves : int list list;     (* order-preserving grouping, node indices *)
  critical_path : int list;  (* one longest dependency chain, in order *)
}

type stats = {
  nodes : int;
  edges : int;
  waves : int;  (* waves of >= 2 statements formed *)
  critical_path_len : int;
}

(* nested PARBEGIN blocks dissolve into their members: plangen's
   one-block-per-query boundaries are exactly what the DAG is meant to see
   through. IF statements stay opaque nodes here (their branches carry
   their own DAGs — see [schedule]). A multi-alias CLOSE splits into
   singleton closes: the engine releases its aliases one at a time in list
   order, which is exactly how the sequential combinator runs the split
   statements, so the split is effect-for-effect identical (including the
   unopened-alias error case) while letting independent closes share a
   wave. Duplicate aliases conflict with themselves and stay serial. *)
let rec flatten stmts =
  List.concat_map
    (function
      | Parallel inner -> flatten inner
      | Close (_ :: _ :: _ as als) -> List.map (fun a -> Close [ a ]) als
      | s -> [ s ])
    stmts

let analyze_seq tmap stmts =
  let nodes =
    Array.of_list
      (List.mapi (fun i s -> { idx = i; stmt = s; rw = stmt_rw tmap s }) stmts)
  in
  let n = Array.length nodes in
  let dep = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      dep.(i).(j) <- conflicts nodes.(i).rw nodes.(j).rw
    done
  done;
  (* transitive reduction: drop i->j when some k between them carries it *)
  let reduced = Array.map Array.copy dep in
  for i = 0 to n - 1 do
    for j = i + 2 to n - 1 do
      if reduced.(i).(j) then
        let k = ref (i + 1) in
        let implied = ref false in
        while (not !implied) && !k < j do
          if dep.(i).(!k) && dep.(!k).(j) then implied := true;
          incr k
        done;
        if !implied then reduced.(i).(j) <- false
    done
  done;
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if reduced.(i).(j) then edges := (i, j) :: !edges
    done
  done;
  (* order-preserving maximal waves: extend the current wave while the
     next statement is independent of every member. Weightless statements
     (SET DOLSTATUS advances no clock and talks to no site) stay solo:
     serializing them is free, so a wave holds only statements that do
     site work. *)
  let weightless = function Set_status _ -> true | _ -> false in
  let waves = ref [] and wave = ref [] in
  let flush () =
    if !wave <> [] then begin
      waves := List.rev !wave :: !waves;
      wave := []
    end
  in
  for j = 0 to n - 1 do
    if weightless nodes.(j).stmt then begin
      flush ();
      waves := [ j ] :: !waves
    end
    else begin
      if List.exists (fun i -> dep.(i).(j)) !wave then flush ();
      wave := j :: !wave
    end
  done;
  flush ();
  let waves = List.rev !waves in
  (* longest chain through the full dependency relation *)
  let len = Array.make n 1 and pred = Array.make n (-1) in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if dep.(i).(j) && len.(i) + 1 > len.(j) then begin
        len.(j) <- len.(i) + 1;
        pred.(j) <- i
      end
    done
  done;
  let tail = ref 0 in
  for j = 1 to n - 1 do
    if len.(j) > len.(!tail) then tail := j
  done;
  let critical_path =
    if n = 0 then []
    else begin
      let path = ref [] and j = ref !tail in
      while !j >= 0 do
        path := !j :: !path;
        j := pred.(!j)
      done;
      !path
    end
  in
  { nodes; edges = !edges; waves; critical_path }

(* The DAG over the program's top level, nested [PARBEGIN] blocks
   dissolved into their members; an IF is an opaque node whose summary is
   the union of both branches plus the condition's status reads. *)
let analyze program =
  let tmap = Hashtbl.create 16 in
  List.iter (collect_targets tmap) program;
  analyze_seq tmap (flatten program)

(* ---- wave scheduling -------------------------------------------------------- *)

let zero_stats = { nodes = 0; edges = 0; waves = 0; critical_path_len = 0 }

let add_stats a b =
  {
    nodes = a.nodes + b.nodes;
    edges = a.edges + b.edges;
    waves = a.waves + b.waves;
    critical_path_len = max a.critical_path_len b.critical_path_len;
  }

(* Regroup [program] into waves, recursing into IF branches (each branch
   is its own sequence: it runs only when the condition says so, and
   always after the condition's inputs settled). The critical-path length
   reported is the top-level program's. *)
let schedule program =
  let tmap = Hashtbl.create 16 in
  List.iter (collect_targets tmap) program;
  let acc = ref zero_stats in
  let rec go ~top stmts =
    let stmts =
      List.map
        (function If (c, a, b) -> If (c, go ~top:false a, go ~top:false b) | s -> s)
        (flatten stmts)
    in
    let g = analyze_seq tmap stmts in
    let wide = List.length (List.filter (fun w -> List.length w >= 2) g.waves) in
    let here =
      {
        nodes = Array.length g.nodes;
        edges = List.length g.edges;
        waves = wide;
        critical_path_len =
          (if top then List.length g.critical_path else 0);
      }
    in
    acc := add_stats !acc here;
    List.map
      (fun w ->
        match List.map (fun i -> g.nodes.(i).stmt) w with
        | [ single ] -> single
        | members -> Parallel members)
      g.waves
  in
  let program = go ~top:true program in
  (program, !acc)

(* ---- rendering (EXPLAIN MULTIPLE) ------------------------------------------ *)

let label = function
  | Open { service; alias; _ } -> Printf.sprintf "OPEN %s AS %s" service alias
  | Close als -> "CLOSE " ^ String.concat ", " als
  | Task t -> Printf.sprintf "TASK %s FOR %s" t.tname t.target
  | Parallel ss -> Printf.sprintf "PARBEGIN[%d]" (List.length ss)
  | If (c, _, _) -> Printf.sprintf "IF %s" (Dol_pp.cond_to_string c)
  | Commit_tasks ns -> "COMMIT " ^ String.concat ", " ns
  | Abort_tasks ns -> "ABORT " ^ String.concat ", " ns
  | Comp c -> Printf.sprintf "COMP %s FOR %s" c.cname c.target
  | Move m -> Printf.sprintf "MOVE %s %s -> %s.%s" m.mname m.src m.dst m.dest_table
  | Set_status n -> Printf.sprintf "DOLSTATUS %d" n

let describe program =
  let g = analyze program in
  let b = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "nodes: %d, edges: %d, waves: %d, critical path: %d stage(s)\n"
    (Array.length g.nodes) (List.length g.edges) (List.length g.waves)
    (List.length g.critical_path);
  Array.iter
    (fun nd ->
      let deps = List.filter_map (fun (i, j) -> if j = nd.idx then Some i else None) g.edges in
      addf "  [%d] %s%s\n" nd.idx (label nd.stmt)
        (match deps with
        | [] -> ""
        | deps ->
            "  <- " ^ String.concat ", " (List.map string_of_int deps)))
    g.nodes;
  List.iteri
    (fun k w ->
      addf "wave %d: {%s}\n" (k + 1)
        (String.concat ", " (List.map string_of_int w)))
    g.waves;
  if g.critical_path <> [] then
    addf "critical path: %s\n"
      (String.concat " -> " (List.map string_of_int g.critical_path));
  Buffer.contents b
