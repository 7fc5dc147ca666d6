(** The Auxiliary Dictionary: what the multidatabase system knows about
    each incorporated service (§3.1).

    Entries are created by the INCORPORATE statement and record how to
    reach a service and which commitment protocol it offers. Plan
    generation reads this — not the live engine — so a mistaken
    INCORPORATE declaration produces exactly the confusion the paper warns
    about (tests cover this). *)

type entry = {
  service : string;
  site : string option;
  connectmode : Ast.connectmode;
  commitmode : Ast.commitmode;
  create_commit : bool;
  insert_commit : bool;
  drop_commit : bool;
}

type t

val create : unit -> t

val version : t -> int
(** Monotone epoch, bumped on every {!register}/{!incorporate} — part of
    the plan cache key, since AD entries decide task modes and
    sites. *)

val incorporate : t -> Ast.incorporate -> unit
(** Insert or replace the entry for the statement's service. *)

val register : t -> entry -> unit
(** Insert or replace an entry directly (programmatic incorporation). *)

val find : t -> string -> entry option
val services : t -> string list

val supports_2pc : entry -> bool
(** Per the paper's (inverted) naming: COMMITMODE NOCOMMIT means the
    service exposes a prepared-to-commit state. *)

val of_capabilities : service:string -> ?site:string -> Ldbms.Capabilities.t -> entry
(** Derive the truthful AD entry for an engine — used by
    auto-incorporation and by tests that need declarations matching
    reality. *)
