(* Rows are held newest-first in [rev_rows]: [hash_join], [filter] and
   [union] build their rows in that order, so they produce a relation
   without reversing a list. The forward (insertion-order) view is memoized
   in [fwd] the first time it is asked for. [size_memo] caches
   {!size_bytes}, which the network simulator recomputes on every send
   otherwise. *)
type t = {
  schema : Schema.t;
  rev_rows : Row.t list;
  mutable fwd : Row.t list option;
  mutable size_memo : int;  (* -1 = not yet computed *)
}

let mk ?fwd ?(size = -1) schema rev_rows =
  { schema; rev_rows; fwd; size_memo = size }

let make schema rows =
  let arity = Schema.arity schema in
  List.iter
    (fun r ->
      if Array.length r <> arity then
        invalid_arg
          (Printf.sprintf "Relation.make: row arity %d, schema arity %d"
             (Array.length r) arity))
    rows;
  mk ~fwd:rows schema (List.rev rows)

let view schema ~rev_rows ~rows = mk ~fwd:rows schema rev_rows
let empty schema = mk ~fwd:[] schema []
let schema t = t.schema

let rows t =
  match t.fwd with
  | Some r -> r
  | None ->
      let r = List.rev t.rev_rows in
      t.fwd <- Some r;
      r

let cardinality t = List.length t.rev_rows
let is_empty t = t.rev_rows = []

let size_bytes t =
  if t.size_memo >= 0 then t.size_memo
  else begin
    let n = List.fold_left (fun acc r -> acc + Row.size_bytes r) 0 t.rev_rows in
    t.size_memo <- n;
    n
  end

let equal a b =
  Schema.equal a.schema b.schema
  && List.length a.rev_rows = List.length b.rev_rows
  && List.for_all2 Row.equal a.rev_rows b.rev_rows

let equal_unordered a b =
  Schema.equal a.schema b.schema
  && List.length a.rev_rows = List.length b.rev_rows
  &&
  let sort rows = List.sort Row.compare rows in
  List.for_all2 Row.equal (sort a.rev_rows) (sort b.rev_rows)

(* filtering the reversed list keeps relative order within it *)
let filter p t = mk t.schema (List.filter p t.rev_rows)
let project t idxs schema =
  let idxs = Array.of_list idxs in
  if Array.length idxs <> Schema.arity schema then
    invalid_arg "Relation.project: index count differs from the schema arity";
  mk schema (List.map (Row.project idxs) t.rev_rows)

let distinct t =
  let seen = Hashtbl.create 64 in
  let keep r =
    let key = Value.row_key (Row.to_list r) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  (* first occurrence wins, so walk in forward order *)
  make t.schema (List.filter keep (rows t))

let union a b =
  if not (Schema.union_compatible a.schema b.schema) then
    invalid_arg "Relation.union: schemas not union-compatible";
  mk a.schema (b.rev_rows @ a.rev_rows)

let product a b =
  let schema = a.schema @ b.schema in
  let brows = rows b in
  let rows =
    List.concat_map (fun ra -> List.map (fun rb -> Row.append ra rb) brows) (rows a)
  in
  make schema rows

(* ---- hash join -----------------------------------------------------------

   Keys are structural: a single join column keys a {!Value.Tbl}, several
   columns hash the list of their {!Value.canonical} values, so a
   single-column probe allocates nothing. A NULL in any key column joins
   nothing. *)

module Many = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash vs = Hashtbl.hash (List.map Value.canonical vs)
end)

(* [key row] is [row]'s join key, which joins nothing when [absent]. The
   table is built on the smaller input and sized from its cardinality, so
   it never rehashes. Rows come out newest-first (the result's
   [rev_rows]) in the order of the filtered product: [a]-major, then [b]
   order. *)
let join_with (type k) (module H : Hashtbl.S with type key = k) ~absent
    ~(key_a : Row.t -> k) ~(key_b : Row.t -> k) a b =
  let add tbl k x =
    match H.find_opt tbl k with
    | Some bucket -> bucket := x :: !bucket
    | None -> H.add tbl k (ref [ x ])
  in
  let find tbl k = if absent k then None else H.find_opt tbl k in
  let out = ref [] in
  let emit ra rb = out := Row.append ra rb :: !out in
  let card_a = cardinality a and card_b = cardinality b in
  if card_b <= card_a then begin
    (* build on [b], walked backwards so each bucket holds [b] order *)
    let tbl = H.create (max 16 card_b) in
    List.iter
      (fun rb ->
        let k = key_b rb in
        if not (absent k) then add tbl k rb)
      b.rev_rows;
    List.iter
      (fun ra ->
        match find tbl (key_a ra) with
        | None -> ()
        | Some rbs -> List.iter (emit ra) !rbs)
      (rows a)
  end
  else begin
    (* build on [a]'s row positions; probing [b] backwards leaves each [a]
       row its matches in [b] order *)
    let arows = Array.of_list (rows a) in
    let tbl = H.create (max 16 card_a) in
    Array.iteri
      (fun p ra ->
        let k = key_a ra in
        if not (absent k) then add tbl k p)
      arows;
    let matches = Array.make card_a [] in
    List.iter
      (fun rb ->
        match find tbl (key_b rb) with
        | None -> ()
        | Some ps -> List.iter (fun p -> matches.(p) <- rb :: matches.(p)) !ps)
      b.rev_rows;
    Array.iteri (fun p ra -> List.iter (emit ra) matches.(p)) arows
  end;
  !out

let hash_join a b ~keys =
  let rev =
    match keys with
    | [ (ia, ib) ] ->
        join_with (module Value.Tbl) ~absent:Value.is_null
          ~key_a:(fun row -> Row.get row ia)
          ~key_b:(fun row -> Row.get row ib)
          a b
    | _ ->
        let key idxs row = List.map (Row.get row) idxs in
        join_with (module Many) ~absent:(List.exists Value.is_null)
          ~key_a:(key (List.map fst keys))
          ~key_b:(key (List.map snd keys))
          a b
  in
  mk (a.schema @ b.schema) rev

let order_by cmp t = mk ~size:t.size_memo t.schema (List.rev (List.stable_sort cmp (rows t)))

let limit n t =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  make t.schema (take n (rows t))

let requalify q t = { t with schema = Schema.requalify q t.schema }

let pp ppf t =
  let headers = Schema.names t.schema in
  let cells = List.map (fun r -> List.map Value.to_string (Row.to_list r)) (rows t) in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) cells)
      headers
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let line cells =
    "|"
    ^ String.concat "|" (List.map2 (fun c w -> " " ^ pad c w ^ " ") cells widths)
    ^ "|"
  in
  Format.fprintf ppf "%s@\n%s@\n%s@\n" rule (line headers) rule;
  List.iter (fun row -> Format.fprintf ppf "%s@\n" (line row)) cells;
  Format.fprintf ppf "%s" rule

let to_string t = Format.asprintf "%a" pp t
