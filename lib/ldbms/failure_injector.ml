type point = At_connect | At_execute | At_prepare | At_commit
type kind = Transient | Fatal

type t = {
  mutable pending : (point * kind) list;  (* oldest first *)
  mutable random : (float * kind * Random.State.t) option;
}

let create () = { pending = []; random = None }
let fail_next ?(kind = Fatal) t p = t.pending <- t.pending @ [ (p, kind) ]

let set_random ?(kind = Fatal) t ~seed ~prob =
  t.random <- Some (prob, kind, Random.State.make [| seed |])

let clear t =
  t.pending <- [];
  t.random <- None

let fires_kind t p =
  let rec remove_first = function
    | [] -> None
    | (x, k) :: rest when x = p -> Some (k, rest)
    | x :: rest ->
        Option.map (fun (k, r) -> (k, x :: r)) (remove_first rest)
  in
  match remove_first t.pending with
  | Some (k, rest) ->
      t.pending <- rest;
      Some k
  | None -> (
      (* exactly one PRNG draw per check: the firing sequence is a pure
         function of the seed, regardless of which points are checked *)
      match t.random with
      | Some (prob, k, st) ->
          if Random.State.float st 1.0 < prob then Some k else None
      | None -> None)

let fires t p = fires_kind t p <> None

let point_to_string = function
  | At_connect -> "connect"
  | At_execute -> "execute"
  | At_prepare -> "prepare"
  | At_commit -> "commit"
