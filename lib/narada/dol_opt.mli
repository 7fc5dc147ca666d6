(** The DOL optimizer is the dataflow pass, {!Dol_graph.schedule}: the
    paper's §5 optimization "related more to data flow control and
    parallelism". This module only keeps the name the end-to-end
    benchmark's traced replay ([msqlbench/]) calls. *)

val dataflow_with_stats : Dol_ast.program -> Dol_ast.program * Dol_graph.stats
(** {!Dol_graph.schedule}. *)
