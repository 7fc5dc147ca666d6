(* Rows are stored newest-first; the forward, insertion-order view is
   memoized, and a bulk load leaves it to the first read.

   Versioning is at table granularity: [rev_rows] always holds the latest
   committed contents, [history] keeps older committed versions newest
   first, each tagged with the commit timestamp that installed it. Readers
   holding a snapshot older than [committed_at] reconstruct their view from
   [history]; everyone else uses the fast current-rows path (and with it the
   lookup caches). *)
type t = {
  name : string;
  schema : Sqlcore.Schema.t;
  mutable rev_rows : Sqlcore.Row.t list;  (* newest first *)
  mutable fwd : Sqlcore.Row.t list option;  (* memoized insertion order *)
  mutable card : int;  (* length of [rev_rows] *)
  mutable history : (int * Sqlcore.Row.t list) list;
      (* older committed versions, newest first; each pair is the commit
         timestamp the version was installed at and its forward row list *)
  mutable committed_at : int;
      (* commit ts of the current version; every path that replaces the
         rows stamps a fresh one, so it also names the version *)
  mutable reserved_by : int option;
      (* transaction id holding a prepare-time write reservation; a
         prepared participant must never lose a conflict race after
         promising, so the reservation blocks competing writers *)
  (* Per-version memos of the current rows, each tagged with the
     [committed_at] of the version it describes and recomputed once that
     version is gone. [classes]: per column, the [Value.class_bit]s its
     values hold. [lookups]: column -> equality-lookup map, or [None] when
     a join asked for it once at that version and scanned instead. *)
  mutable classes : int * int array;
  lookups : (int, int * Sqlcore.Row.t Sqlcore.Value.Tbl.t option) Hashtbl.t;
}

let create ~name schema =
  {
    name;
    schema;
    rev_rows = [];
    fwd = Some [];
    card = 0;
    history = [];
    committed_at = 0;
    reserved_by = None;
    classes = (-1, [||]);
    lookups = Hashtbl.create 4;
  }

let name t = t.name
let schema t = t.schema

let rows t =
  match t.fwd with
  | Some r -> r
  | None ->
      let r = List.rev t.rev_rows in
      t.fwd <- Some r;
      r

let cardinality t = t.card

let set_rows t ~ts ~rev_rows fwd =
  t.rev_rows <- rev_rows;
  t.fwd <- fwd;
  t.card <- List.length rev_rows;
  t.committed_at <- ts

let load t ~ts rows =
  let arity = Sqlcore.Schema.arity t.schema in
  let rev_rows =
    List.fold_left
      (fun acc row ->
        if Array.length row <> arity then
          invalid_arg (Printf.sprintf "Table.load(%s): arity mismatch" t.name);
        row :: acc)
      [] rows
  in
  set_rows t ~ts ~rev_rows None

let to_relation t = Sqlcore.Relation.view t.schema ~rev_rows:t.rev_rows ~rows:(rows t)
let committed_at t = t.committed_at

let rows_at t ~ts =
  if ts >= t.committed_at then rows t
  else
    (* history is newest first with strictly decreasing timestamps; the
       visible version is the newest one committed at or before [ts] *)
    let rec visible = function
      | [] -> []
      | (cts, rows) :: older -> if cts <= ts then rows else visible older
    in
    visible t.history

let install t ~ts ~keep_since rows_ =
  t.history <- (t.committed_at, rows t) :: t.history;
  set_rows t ~ts ~rev_rows:(List.rev rows_) (Some rows_);
  (* prune versions no active snapshot can see: keep every version newer
     than the oldest snapshot plus the first one at or below it *)
  let rec prune = function
    | [] -> []
    | (cts, _) as v :: older ->
        if cts > keep_since then v :: prune older else [ v ]
  in
  t.history <- prune t.history

let reserved_by t = t.reserved_by
let reserve t ~txn = t.reserved_by <- Some txn

let release_reservation t ~txn =
  match t.reserved_by with
  | Some id when id = txn -> t.reserved_by <- None
  | _ -> ()

let value_classes t =
  match t.classes with
  | at, bits when at = t.committed_at -> bits
  | _ ->
      let bits = Array.make (Sqlcore.Schema.arity t.schema) 0 in
      List.iter
        (fun row ->
          for c = 0 to Array.length bits - 1 do
            bits.(c) <- bits.(c) lor Sqlcore.Value.class_bit row.(c)
          done)
        t.rev_rows;
      t.classes <- (t.committed_at, bits);
      bits

let lookup_map t ~col =
  match Hashtbl.find_opt t.lookups col with
  | Some (at, Some map) when at = t.committed_at -> map
  | Some _ | None ->
      let map = Sqlcore.Value.Tbl.create (max 16 t.card) in
      (* newest first: [find_all] returns the latest binding first, so a
         key's rows come back in insertion order *)
      List.iter
        (fun row ->
          let v = row.(col) in
          if not (Sqlcore.Value.is_null v) then Sqlcore.Value.Tbl.add map v row)
        t.rev_rows;
      Hashtbl.replace t.lookups col (t.committed_at, Some map);
      map

let lookup_eq t ~col =
  let map = lookup_map t ~col in
  fun v -> if Sqlcore.Value.is_null v then [] else Sqlcore.Value.Tbl.find_all map v

let lookup_built t ~col =
  match Hashtbl.find_opt t.lookups col with
  | Some (at, Some _) -> at = t.committed_at
  | Some (_, None) | None -> false

let probe_pays t ~col =
  match Hashtbl.find_opt t.lookups col with
  | Some (at, _) when at = t.committed_at -> true
  | Some _ | None ->
      Hashtbl.replace t.lookups col (t.committed_at, None);
      false
