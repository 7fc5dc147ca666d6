let dataflow_with_stats = Dol_graph.schedule
