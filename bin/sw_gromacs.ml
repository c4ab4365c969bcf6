(* sw_gromacs: run a water MD simulation on the simulated SW26010.

   Mirrors a minimal `mdrun`: builds a water box, minimizes, runs
   dynamics with the selected short-range kernel variant, and prints
   an energy log plus the simulated-machine cost summary.

   With --trace FILE the run records the swtrace timeline (MPE phases,
   per-CPE kernel lanes, DMA transfers, network communication) and
   exports it as Chrome trace_event JSON, loadable in Perfetto;
   --trace-summary prints the phase/utilization/DMA/roofline tables
   instead of (or in addition to) the file. *)

let peak_flops (cfg : Swarch.Config.t) =
  float_of_int cfg.Swarch.Config.cpe_count
  *. float_of_int cfg.Swarch.Config.simd_lanes
  *. cfg.Swarch.Config.cpe_freq_hz

let export_trace ~cfg ~trace_file ~trace_summary =
  let events = Swtrace.Trace.events () in
  (match trace_file with
  | Some path -> (
      try
        Swtrace.Chrome.write_file path events;
        Fmt.pr "@.trace: %d events -> %s" (List.length events) path;
        let dropped = Swtrace.Trace.dropped () in
        if dropped > 0 then Fmt.pr " (%d oldest events dropped)" dropped;
        Fmt.pr "@."
      with Sys_error msg ->
        Fmt.epr "sw_gromacs: cannot write trace: %s@." msg;
        exit 1)
  | None -> ());
  if trace_summary then
    Swtrace.Summary.print
      ~platform:
        (Printf.sprintf "%s (%s), %d-lane SIMD, %d domain(s)"
           cfg.Swarch.Config.display cfg.Swarch.Config.name
           cfg.Swarch.Config.simd_lanes (Swpar.Domains.get ()))
      ~peak_flops:(peak_flops cfg)
      ~peak_bw:(Swarch.Config.peak_dma_bw cfg)
      Fmt.stdout events;
  Swtrace.Trace.disable ()

let main particles steps variant_name platform_name dt temp seed domains
    pipelined overlap write_traj trace_file trace_summary checkpoint_every
    checkpoint_file restart_file faults_spec fault_seed =
  (try Swpar.Domains.set domains
   with Invalid_argument msg ->
     Fmt.epr "sw_gromacs: %s@." msg;
     exit 2);
  let variant =
    match Swgmx.Variant.of_string variant_name with
    | Some v -> v
    | None ->
        Fmt.epr "unknown kernel variant %S (try: ori pkg cache vec mark rma rca ustc)@."
          variant_name;
        exit 2
  in
  (* resolve and validate the machine description once at the boundary *)
  let cfg =
    try
      let p = Swarch.Platform.resolve platform_name in
      Swarch.Platform.validate p;
      p
    with Invalid_argument msg ->
      Fmt.epr "sw_gromacs: %s@." msg;
      exit 2
  in
  let fault_plan =
    try Swfault.Plan.of_string faults_spec
    with Invalid_argument msg ->
      Fmt.epr "sw_gromacs: %s@." msg;
      exit 2
  in
  let faults =
    if Swfault.Plan.is_zero fault_plan then None
    else Some (Swfault.Injector.create ~seed:fault_seed fault_plan)
  in
  let restart =
    Option.map
      (fun path ->
        try
          Swio.Checkpoint.of_string
            (In_channel.with_open_text path In_channel.input_all)
        with Sys_error msg | Invalid_argument msg ->
          Fmt.epr "sw_gromacs: cannot restart: %s@." msg;
          exit 2)
      restart_file
  in
  let protected =
    faults <> None || checkpoint_every <> None || restart_file <> None
  in
  let tracing = trace_file <> None || trace_summary in
  if tracing then Swtrace.Trace.enable ();
  let molecules = max 4 (particles / 3) in
  Fmt.pr "sw_gromacs: %d water molecules (%d atoms), %d steps, kernel %s%s, %d domain(s)@."
    molecules (3 * molecules) steps (Swgmx.Variant.name variant)
    (if pipelined then " (pipelined)" else "")
    (Swpar.Domains.get ());
  Fmt.pr "platform: %a@." Swarch.Platform.pp cfg;
  (match faults with
  | Some inj ->
      Fmt.pr "fault plan (seed %d): %a@." fault_seed Swfault.Plan.pp
        (Swfault.Injector.plan inj)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let sample_every = max 1 (steps / 10) in
  (* the recovery loop checkpoints on the pair-list cadence and rolls
     back on unrecoverable faults; each capture overwrites the
     checkpoint file so a crash restarts from the latest one *)
  let write_ck ck =
    let oc = open_out checkpoint_file in
    output_string oc (Swio.Checkpoint.to_string ck);
    close_out oc
  in
  let on_checkpoint = if checkpoint_every <> None then Some write_ck else None in
  let samples, st, rstats =
    Swgmx.Engine.simulate_protected ~cfg ~variant ~dt ~temp ~pipelined ?faults
      ?checkpoint_every ?restart ?on_checkpoint ~molecules ~seed ~steps
      ~sample_every ()
  in
  if protected then begin
    Fmt.pr "recovery: %a@." Swfault.Recovery.pp_stats rstats;
    match faults with
    | Some inj ->
        Fmt.pr "faults: %a@." Swfault.Injector.pp_stats
          (Swfault.Injector.stats inj)
    | None -> ()
  end;
  Fmt.pr "@.%6s %16s %12s@." "step" "total E (kJ/mol)" "T (K)";
  List.iter
    (fun (s : Swgmx.Engine.sample) ->
      Fmt.pr "%6d %16.2f %12.1f@." s.Swgmx.Engine.step s.Swgmx.Engine.total_energy
        s.Swgmx.Engine.temperature)
    samples;
  let plan = if overlap then Swstep.Plan.Overlap else Swstep.Plan.Serial in
  (* the step timeline (MPE phases + network track) does not come from
     the dynamics above: trace_steps prices the first step of a freshly
     built system of the same size, decomposed over 8 core groups so
     communication shows up, and lays [steps] copies of that one step
     end to end *)
  if tracing then
    ignore
      (Swgmx.Engine.trace_steps ~cfg ~version:Swgmx.Engine.V_other ~pipelined
         ~plan ?faults ~total_atoms:(3 * molecules) ~n_cg:8 ~steps ());
  (if overlap then begin
     (* price the decomposed step both ways and show what overlapping
        communication behind compute buys on this workload *)
     let measure plan =
       Swgmx.Engine.measure ~cfg ~plan ~version:Swgmx.Engine.V_other ~pipelined
         ~total_atoms:(3 * molecules) ~n_cg:8 ()
     in
     let ms = measure Swstep.Plan.Serial in
     let mo = measure Swstep.Plan.Overlap in
     Fmt.pr "@.step plan (V_other, 8 CGs): serial %.3f ms -> overlap %.3f ms@."
       (ms.Swgmx.Engine.step_time *. 1e3)
       (mo.Swgmx.Engine.step_time *. 1e3);
     Fmt.pr "  Wait + comm. F: %.3f ms -> %.3f ms (%.3f ms of comm hidden)@."
       (Swgmx.Engine.row ms "Wait + comm. F" *. 1e3)
       (Swgmx.Engine.row mo "Wait + comm. F" *. 1e3)
       (mo.Swgmx.Engine.step.Swstep.Plan.comm_hidden *. 1e3)
   end);
  (if write_traj then begin
     let w = Swio.Buffered_writer.create (Buffer.create 4096) in
     let bytes =
       Swio.Trajectory.write_frame ~path:Swio.Trajectory.Fast w ~step:steps
         ~pos:st.Mdcore.Md_state.pos ~n:(3 * molecules)
     in
     Swio.Buffered_writer.flush w;
     Fmt.pr "@.trajectory frame: %d bytes in %d write call(s)@." bytes
       (Swio.Buffered_writer.flushes w)
   end);
  if tracing then export_trace ~cfg ~trace_file ~trace_summary;
  Fmt.pr "@.wall time: %.1f s@." (Unix.gettimeofday () -. t0);
  0

open Cmdliner

let particles =
  Arg.(value & opt int 3000 & info [ "n"; "particles" ] ~doc:"Particle count.")

let steps = Arg.(value & opt int 100 & info [ "s"; "steps" ] ~doc:"MD steps.")

let variant =
  Arg.(
    value & opt string "mark"
    & info [ "k"; "kernel" ] ~doc:"Short-range kernel variant.")

let platform =
  Arg.(
    value
    & opt string Swarch.Platform.default.Swarch.Platform.name
    & info [ "platform" ] ~docv:"NAME"
        ~doc:
          "Machine description to simulate: a built-in platform name \
           ($(b,sw26010), $(b,sw26010_pro)) or the path of a key=value \
           platform file (see docs/PLATFORMS.md).")

let dt = Arg.(value & opt float 0.001 & info [ "dt" ] ~doc:"Time step (ps).")
let temp = Arg.(value & opt float 300.0 & info [ "t"; "temp" ] ~doc:"Temperature (K).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Execute the CPE mesh walks over $(docv) OCaml domains (see \
           docs/PARALLEL.md).  Sharding is static and the merge order \
           fixed, so physics, cost charges and traces are bit-identical \
           for every $(docv); 1 reproduces the serial path.")

let pipelined =
  Arg.(
    value & flag
    & info [ "pipelined" ]
        ~doc:
          "Run the short-range kernel through the swsched double-buffer \
           pipeline: simulated time comes from the discrete-event replay \
           (DMA overlapped behind compute) instead of the serial analytic \
           model.  Physics results are identical either way.")

let overlap =
  Arg.(
    value & flag
    & info [ "overlap" ]
        ~doc:
          "Schedule the step's communication phases to overlap independent \
           compute (the swstep Overlap plan) instead of the serial profile, \
           and print a serial-vs-overlap comparison of the decomposed step.")

let traj =
  Arg.(value & flag & info [ "traj" ] ~doc:"Write one trajectory frame at the end.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run and export a Chrome trace_event JSON file: the \
           dynamics' kernel detail, then $(b,--steps) copies of one priced \
           step of the same system over 8 core groups (Table-1 phases and \
           communication; copies of one step, not consecutive MD steps).")

let trace_summary =
  Arg.(
    value & flag
    & info [ "trace-summary" ]
        ~doc:"Record the run and print phase/utilization/DMA/roofline tables.")

let checkpoint_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Capture a restart checkpoint every $(docv) steps (rounded up to \
           the pair-list cadence) and write it to the $(b,--checkpoint) \
           file, enabling the protected recovery loop.")

let checkpoint_file =
  Arg.(
    value
    & opt string "sw_gromacs.cpt"
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Checkpoint file written by $(b,--checkpoint-every).")

let restart =
  Arg.(
    value
    & opt (some string) None
    & info [ "restart" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint file: the run restarts at the captured \
           step and reproduces the uninterrupted trajectory bit for bit.")

let faults =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault plan, comma-separated $(i,key=value) pairs: \
           dma_error, dma_backoff, dma_retries, link_degrade, link_drop, \
           link_timeout, ldm_flip, cpe_dead=ID (repeatable), cpe_slow=ID:F, \
           cpe_stall=ID:S.  Empty means no faults.")

let fault_seed =
  Arg.(
    value & opt int 2027
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault injector's deterministic RNG.")

let cmd =
  let doc = "molecular dynamics on the simulated Sunway SW26010" in
  Cmd.v
    (Cmd.info "sw_gromacs" ~doc)
    Term.(
      const main $ particles $ steps $ variant $ platform $ dt $ temp $ seed
      $ domains $ pipelined $ overlap $ traj $ trace_file $ trace_summary
      $ checkpoint_every $ checkpoint_file $ restart $ faults $ fault_seed)

let () = exit (Cmd.eval' cmd)
