(** Multitables: the result of a multiple retrieval query (§2) — a set of
    tables, one per database that produced a partial result. The parts are
    deliberately {e not} merged: MSQL leaves sets of tables visible to the
    user, who may aggregate them with multitable built-ins. *)

type part = {
  part_db : string;  (** database the partial result came from *)
  part_table : Sqlcore.Relation.t;
}

type t

val make : part list -> t
val parts : t -> part list
val databases : t -> string list
val is_empty : t -> bool

val find : t -> string -> Sqlcore.Relation.t option
(** Partial result of a given database. When a database contributed
    several partial tables, they are returned unioned if compatible, the
    first otherwise. *)

val flatten : t -> Sqlcore.Relation.t option
(** Union of all parts when they are union-compatible — the "merge into
    the final result" step of §2 for identically-shaped partial results;
    [None] if shapes differ. *)

(** {2 Multiple-table built-ins}

    §2 lists "new built-in functions for aggregation and manipulation of
    multiple tables" among MSQL's features. These operate across all
    partial results of a multitable; a column is addressed by name and
    evaluated in every part that has it (parts lacking the column are
    skipped, matching the permissive spirit of optional columns). *)

type agg = Count | Sum | Avg | Min | Max

val aggregate : t -> agg -> column:string -> Sqlcore.Value.t
(** Aggregate a named column over every part that carries it. NULLs are
    ignored as in SQL; [Count] counts non-null values. Returns [Null] when
    no part has the column or no non-null value exists. *)

val aggregate_per_part : t -> agg -> column:string -> (string * Sqlcore.Value.t) list
(** The same aggregate computed part by part (db name, value), skipping
    parts without the column. *)

val total_count : t -> int
(** Rows across all parts — the multitable row count. *)

val restrict : t -> (string -> bool) -> t
(** Keep only the parts of the named databases. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
