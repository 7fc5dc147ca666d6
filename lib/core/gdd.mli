(** The Global Data Dictionary: names, types and widths of the database
    objects visible at the multidatabase level (§3.1).

    Populated by IMPORT statements from Local Conceptual Schemas. The GDD
    is what multiple-identifier substitution consults: expansion never
    talks to a live database. *)

type t

val create : unit -> t

val id : t -> int
(** Process-unique identity of this dictionary instance (positive,
    allocation-ordered). The session plan-cache key embeds
    [(id, version)], so that two dictionaries which happen to share a
    version number can never collide. *)

val version : t -> int
(** Monotone epoch, bumped on every mutation (imports, cardinality
    updates, forgets). Cached artifacts derived from the GDD — compiled
    plans above all — key on this and so miss after any IMPORT changes
    what a statement should expand to. *)

val import_table : t -> db:string -> table:string -> Sqlcore.Schema.t -> unit
(** Insert or replace one table definition. *)

val import_columns :
  t -> db:string -> table:string -> Sqlcore.Schema.t -> string list -> unit
(** Partial import: only the named columns of the given schema. Raises
    [Invalid_argument] if a named column is absent. *)

val import_database : t -> db:string -> (string * Sqlcore.Schema.t) list -> unit
(** Import a whole local conceptual schema (replaces prior definitions of
    the same tables but keeps others). *)

val set_cardinality : t -> db:string -> table:string -> int -> unit
(** Record the table's row count as observed at IMPORT time. Purely
    statistical: consulted by the decomposer's cost model, never by name
    resolution. *)

val cardinality : t -> db:string -> table:string -> int option

val forget_database : t -> string -> unit
(** Drops the database's tables and their cardinality statistics. *)

val databases : t -> string list
val has_database : t -> string -> bool
val tables : t -> db:string -> (string * Sqlcore.Schema.t) list

val find_table : t -> db:string -> string -> Sqlcore.Schema.t option
(** Exact (case-insensitive) lookup. *)

val match_tables : t -> db:string -> pattern:string -> (string * Sqlcore.Schema.t) list
(** Tables of [db] whose name matches a multiple identifier ([%]
    wildcard); an exact name is the degenerate pattern. Sorted by name. *)

val match_columns : Sqlcore.Schema.t -> pattern:string -> string list
(** Column names of a schema matching a multiple identifier. *)
