(** The paper's example databases (Appendix A), loaded with sample data.

    Two car-rental companies (AVIS, NATIONAL) and three airlines
    (CONTINENTAL, DELTA, UNITED), exhibiting exactly the naming and schema
    heterogeneities the paper's examples exercise: [cars] vs [vehicle],
    [rate] present only in AVIS, [flights]/[flight] with differently
    spelled columns, seat tables with different names.

    Naming note: the appendix lists the seat tables as "838" (an OCR
    artifact, presumably fl838) and "fnu747", but the §3.4
    multitransaction LET refers to them as [f838] and [f747]; we use the
    LET spellings so the paper's programs run verbatim. *)

type t = {
  session : Msession.t;
  world : Netsim.World.t;
  directory : Narada.Directory.t;
}

val make : ?caps:(string * Ldbms.Capabilities.t) list -> unit -> t
(** Build the five-database federation: sites [site1]..[site5], services
    registered in the Narada directory, truthfully INCORPORATEd in the AD,
    and all schemas IMPORTed into the GDD. [caps] overrides engine
    capabilities per database (e.g. make continental autocommit-only to
    reproduce §3.3). *)

val database : t -> string -> Ldbms.Database.t
(** Direct handle on a fixture database (for assertions in tests). *)

val scan : t -> db:string -> table:string -> Sqlcore.Relation.t
(** Current contents of a table, bypassing the network. *)

val airline_fleet :
  ?flights_per_db:int -> ?seed:int -> n:int -> unit -> t
(** A synthetic federation of [n] airline databases ([airline1] ..
    [airlinen]), each with a [flights] table of [flights_per_db] rows
    (default 100) — the workload generator for the parameter-sweep
    benchmarks. All engines are ingres-like 2PC. *)
