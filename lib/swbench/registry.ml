(** Experiment registry: every table and figure of the paper's
    evaluation, addressable by id. *)

type experiment = {
  id : string;
  title : string;
  run : quick:bool -> Format.formatter -> unit;
}

(** All experiments, in paper order. *)
let all =
  [
    {
      id = "table1";
      title = "Table 1: kernel time shares";
      run = (fun ~quick ppf -> Exp_tables.table1 ~quick ppf);
    };
    {
      id = "table2";
      title = "Table 2: DMA bandwidth by transfer size";
      run = (fun ~quick:_ ppf -> Exp_tables.table2 ppf);
    };
    {
      id = "table3";
      title = "Table 3: benchmark parameters";
      run = (fun ~quick:_ ppf -> Exp_tables.table3 ppf);
    };
    {
      id = "table4";
      title = "Table 4: platform information";
      run = (fun ~quick:_ ppf -> Exp_tables.table4 ppf);
    };
    {
      id = "fig8";
      title = "Figure 8: kernel speedup by optimization stage";
      run = (fun ~quick ppf -> Exp_fig8.run ~quick ppf);
    };
    {
      id = "fig9";
      title = "Figure 9: write-conflict strategy comparison";
      run = (fun ~quick ppf -> Exp_fig9.run ~quick ppf);
    };
    {
      id = "fig10";
      title = "Figure 10: overall speedup by optimization level";
      run = (fun ~quick ppf -> Exp_fig10.run ~quick ppf);
    };
    {
      id = "fig11";
      title = "Figure 11: cross-platform comparison";
      run = (fun ~quick ppf -> Exp_fig11.run ~quick ppf);
    };
    {
      id = "fig12";
      title = "Figure 12: weak & strong scalability";
      run = (fun ~quick ppf -> Exp_fig12.run ~quick ppf);
    };
    {
      id = "fig13";
      title = "Figure 13: accuracy";
      run = (fun ~quick ppf -> Exp_fig13.run ~quick ppf);
    };
    {
      id = "ablations";
      title = "Ablations: cache geometry, aggregation, gld vs DMA";
      run = (fun ~quick ppf -> Ablations.run ~quick ppf);
    };
  ]

(** [find id] looks an experiment up by id. *)
let find id = List.find_opt (fun e -> e.id = id) all

(** [ids ()] lists all experiment ids. *)
let ids () = List.map (fun e -> e.id) all

(** [run e ~quick ppf] executes [e].  When the {!Swtrace} recorder is
    enabled the whole experiment is wrapped in an ["exp:<id>"] span on
    the MPE track, so a traced `experiments` run shows one phase per
    regenerated table or figure. *)
let run (e : experiment) ~quick ppf =
  if Swtrace.Trace.enabled () then
    Swtrace.Trace.with_span ~cat:"exp" Swtrace.Track.Mpe ("exp:" ^ e.id)
      (fun () -> e.run ~quick ppf)
  else e.run ~quick ppf
