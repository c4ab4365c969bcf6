(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks: one Test.make per table/figure,
   each timing the representative operation behind that result at a
   small workload (so the wall-clock benchmark itself is quick).

   Part 2 — regeneration: every table and figure of the paper is
   rebuilt through the experiment registry in quick mode.  Full-size
   regeneration is `dune exec bin/experiments.exe`.

   `--json FILE` additionally writes the results machine-readably:
   every benchmark's ns/run and r^2, plus the key simulated-time
   figures of the Table-1 Mark workload (serial, swsched-scheduled and
   ideal-overlap elapsed, DMA bytes), the wall_* host timings and the
   alloc_* GC figures of the measured step (see docs/ALLOC.md). *)

open Bechamel
open Toolkit
module V = Swgmx.Variant
module E = Swgmx.Engine

(* shared small workloads, prepared once *)
let prep3k = lazy (Swbench.Common.prepare ~particles:3000 ())
let prep6k = lazy (Swbench.Common.prepare ~particles:6000 ())

let kernel_test name variant prep =
  Test.make ~name
    (Staged.stage (fun () ->
         let p = Lazy.force prep in
         ignore (Swbench.Common.kernel_outcome p variant)))

let tests =
  [
    (* Table 1 / Figure 10: pricing one full MD step *)
    Test.make ~name:"table1/fig10: Engine.measure V_ori"
      (Staged.stage (fun () ->
           ignore
             (E.measure ~cfg:(Swbench.Common.cfg ()) ~version:E.V_ori
                ~total_atoms:3000 ~n_cg:1 ())));
    Test.make ~name:"table1/fig10: Engine.measure V_other"
      (Staged.stage (fun () ->
           ignore
             (E.measure ~cfg:(Swbench.Common.cfg ()) ~version:E.V_other
                ~total_atoms:3000 ~n_cg:4 ())));
    (* Table 2: the DMA bandwidth model *)
    Test.make ~name:"table2: Dma.bandwidth sweep"
      (Staged.stage (fun () ->
           for s = 1 to 4096 do
             ignore (Swarch.Dma.bandwidth (Swbench.Common.cfg ()) s)
           done));
    (* Table 3/4 are static tables: benchmark their rendering *)
    Test.make ~name:"table3+4: render"
      (Staged.stage (fun () ->
           Swbench.Exp_tables.table3 Format.str_formatter;
           Swbench.Exp_tables.table4 Format.str_formatter;
           ignore (Format.flush_str_formatter ())));
    (* Figure 8: one kernel invocation per optimization stage *)
    kernel_test "fig8: Ori kernel (3k)" V.Ori prep3k;
    kernel_test "fig8: Pkg kernel (3k)" V.Pkg prep3k;
    kernel_test "fig8: Cache kernel (3k)" V.Cache prep3k;
    kernel_test "fig8: Vec kernel (3k)" V.Vec prep3k;
    kernel_test "fig8: Mark kernel (3k)" V.Mark prep3k;
    (* Figure 9: the baselines *)
    kernel_test "fig9: RCA kernel (3k)" V.Rca prep3k;
    kernel_test "fig9: USTC kernel (3k)" V.Ustc prep3k;
    kernel_test "fig9: RMA kernel (3k)" V.Rma prep3k;
    (* Figure 10 list stage: CPE pair-list generation *)
    Test.make ~name:"fig10: Nsearch_cpe two-way (6k)"
      (Staged.stage (fun () ->
           let p = Lazy.force prep6k in
           let cg = Swarch.Core_group.create (Swbench.Common.cfg ()) in
           ignore
             (Swgmx.Nsearch_cpe.run p.Swbench.Common.sys cg
                ~kind:Swgmx.Nsearch_cpe.Two_way ~rlist:p.Swbench.Common.rcut)));
    (* Figure 11: the TTF platform model *)
    Test.make ~name:"fig11: TTF ratios"
      (Staged.stage (fun () ->
           ignore (Swarch.Platforms.ttf_ratio Swarch.Platforms.sw26010 Swarch.Platforms.knl);
           ignore (Swarch.Platforms.ttf_ratio Swarch.Platforms.sw26010 Swarch.Platforms.p100)));
    (* Figure 12: the scaling model sweep *)
    Test.make ~name:"fig12: scaling curves"
      (Staged.stage (fun () ->
           let compute a = 3.6e-7 *. float_of_int a in
           ignore
             (Swcomm.Scaling.strong ~compute ~total_atoms:48000 ~rcut:1.0
                ~box_edge:11.3 [ 4; 8; 16; 32; 64; 128; 256; 512 ]);
           ignore
             (Swcomm.Scaling.weak ~compute ~atoms_per_cg:10000 ~rcut:1.0
                ~box_edge_per_cg:4.64 [ 4; 8; 16; 32; 64; 128; 256; 512 ])));
    (* Figure 13: a few steps of mixed-precision dynamics *)
    Test.make ~name:"fig13: Engine.simulate 5 steps"
      (Staged.stage (fun () ->
           ignore
             (E.simulate ~cfg:(Swbench.Common.cfg ()) ~molecules:16 ~seed:5
                ~steps:5 ~sample_every:5 ())));
    (* Section 3.7: the two I/O paths *)
    Test.make ~name:"io: fast formatter (1k floats)"
      (Staged.stage (fun () ->
           let w = Swio.Buffered_writer.create Swio.Buffered_writer.Discard in
           for i = 1 to 1000 do
             Swio.Buffered_writer.write_fixed w (float_of_int i *. 0.001) ~decimals:3
           done));
    Test.make ~name:"io: printf path (1k floats)"
      (Staged.stage (fun () ->
           let w = Swio.Buffered_writer.create Swio.Buffered_writer.Discard in
           for i = 1 to 1000 do
             Swio.Buffered_writer.write_string w
               (Printf.sprintf "%.3f" (float_of_int i *. 0.001))
           done));
  ]

(* returns (name, ns_per_run, r_square) rows, sorted by name *)
let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          Hashtbl.replace results (Test.Elt.name elt) m)
        (Test.elements test))
    tests;
  let analyzed = Analyze.all ols Instance.monotonic_clock results in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) analyzed [] in
  List.sort compare
    (List.map
       (fun (name, ols_result) ->
         let time =
           match Analyze.OLS.estimates ols_result with
           | Some (t :: _) -> t
           | _ -> Float.nan
         in
         let r2 =
           Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result)
         in
         (name, time, r2))
       rows)

let print_benchmarks rows =
  Fmt.pr "%-45s %15s %10s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, time, r2) ->
      let pretty t =
        if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
        else Printf.sprintf "%.0f ns" t
      in
      Fmt.pr "%-45s %15s %10.3f@." name (pretty time) r2)
    rows

(* the key simulated-time figures: the Table-1 Mark workload priced
   serially, through the swsched replay, and at the ideal-overlap
   bound (all from one recorded run), plus the LDM tiling plan the
   offload layer derives for the MD i-package walk *)
let simulated_figures () =
  let p = Lazy.force prep3k in
  let cfg = (Swbench.Common.cfg ()) in
  let cg = Swarch.Core_group.create cfg in
  Swarch.Core_group.reset cg;
  let recorder = Swsched.Recorder.create cfg in
  let spec = Swgmx.Kernel_cpe.spec_of_variant V.Mark in
  ignore
    (Swgmx.Kernel_cpe.run ~sched:recorder p.Swbench.Common.sys
       p.Swbench.Common.pairs cg spec);
  let mpe = Swarch.Mpe.time cfg cg.Swarch.Core_group.mpe in
  let s = Swsched.Schedule.run cfg recorder in
  let total = Swarch.Core_group.total_cost cg in
  (* the full decomposed step, priced through both swstep plans *)
  let step plan =
    E.measure ~cfg ~plan ~version:E.V_other ~total_atoms:24000 ~n_cg:8 ()
  in
  let step_serial = step Swstep.Plan.Serial in
  let step_overlap = step Swstep.Plan.Overlap in
  (* resilience: the same recording replayed under a faulty DMA plan
     (deterministic, seed 2027), plus the analytic checkpoint optimum *)
  let faulty rate =
    let inj =
      Swfault.Injector.create ~seed:2027
        { Swfault.Plan.zero with Swfault.Plan.dma_error_rate = rate }
    in
    Swsched.Schedule.run ~faults:inj cfg recorder
  in
  let f5 = faulty 0.05 and f10 = faulty 0.1 in
  let ckpt_s =
    Swfault.Recovery.checkpoint_cost cfg
      ~frame_s:(Swio.Io_model.frame_time ~path:Swio.Io_model.Fast ~n_atoms:3000)
  in
  let opt_interval =
    Swfault.Recovery.optimal_interval ~fault_rate:1e-3
      ~step_s:step_serial.E.step_time ~ckpt_s
  in
  let md_plan =
    Swgmx.Kernel_cpe.offload_plan cfg ~slots:Swoffload.Plan.default_slots
      ~n_clusters:1024
  in
  [
    ("mark3k_serial_s", Swarch.Core_group.elapsed cg);
    ("mark3k_scheduled_s", s.Swsched.Schedule.elapsed +. mpe);
    ("mark3k_overlapped_s", Swarch.Core_group.elapsed_overlapped cg);
    ("mark3k_dma_bytes", total.Swarch.Cost.dma_bytes);
    ("mark3k_dma_requests", float_of_int s.Swsched.Schedule.dma_requests);
    ("mark3k_bus_busy_s", s.Swsched.Schedule.bus_busy_s);
    ("mark3k_bus_contended_s", s.Swsched.Schedule.bus_contended_s);
    ("mark3k_sched_events", float_of_int s.Swsched.Schedule.events);
    ("step24k_serial_s", step_serial.E.step_time);
    ("step24k_overlap_s", step_overlap.E.step_time);
    ("step24k_comm_hidden_s", step_overlap.E.step.Swstep.Plan.comm_hidden);
    ("step24k_critical_path_s", step_overlap.E.step.Swstep.Plan.critical_path);
    ("fault_dma5pct_sched_s", f5.Swsched.Schedule.elapsed +. mpe);
    ("fault_dma5pct_retries", float_of_int f5.Swsched.Schedule.dma_retries);
    ("fault_dma10pct_sched_s", f10.Swsched.Schedule.elapsed +. mpe);
    ("fault_dma10pct_retries", float_of_int f10.Swsched.Schedule.dma_retries);
    ("fault_ckpt_cost_s", ckpt_s);
    ("fault_ckpt_opt_interval_steps", float_of_int opt_interval);
    ( "offload_md_tile_bytes",
      float_of_int md_plan.Swoffload.Plan.tile_bytes );
    ( "offload_md_reserve_bytes",
      float_of_int (Swoffload.Plan.reserve md_plan ~recorded:true) );
  ]

(* Real wall-clock alongside the simulated figures: best-of-three fresh
   runs of the Table-1 24k decomposed step and the 3k Mark kernel.  The
   simulated keys above are bit-identical across [--domains N]; these
   wall_* keys (and the [domains] stamp) are what actually moves. *)
let wall_figures () =
  let best_of_3 f =
    let once () =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let a = once () in
    let b = once () in
    let c = once () in
    Float.min a (Float.min b c)
  in
  let cfg = Swbench.Common.cfg () in
  let step =
    best_of_3 (fun () ->
        ignore (E.measure ~cfg ~version:E.V_other ~total_atoms:24000 ~n_cg:8 ()))
  in
  let mark =
    best_of_3 (fun () ->
        let p = Lazy.force prep3k in
        let cg = Swarch.Core_group.create cfg in
        ignore
          (Swgmx.Kernel_cpe.run p.Swbench.Common.sys p.Swbench.Common.pairs cg
             (Swgmx.Kernel_cpe.spec_of_variant V.Mark)))
  in
  [
    ("wall_step_ms", step *. 1e3);
    ("wall_mark3k_ms", mark *. 1e3);
    ("domains", float_of_int (Swpar.Domains.get ()));
  ]

(* GC allocation of the same Table-1 24k step that wall_step_ms times:
   words and minor collections per measured step.  Like the wall_*
   keys these are host figures, not simulated ones — they need not be
   bit-identical across domain counts, but with allocation-free hot
   loops the per-step total is approximately domain-independent, and
   CI holds it to a tolerance. *)
let alloc_figures () =
  let cfg = Swbench.Common.cfg () in
  let s =
    Swbench.Alloc.measure ~warmup:1 ~steps:3 (fun () ->
        ignore (E.measure ~cfg ~version:E.V_other ~total_atoms:24000 ~n_cg:8 ()))
  in
  [
    ("alloc_words_per_step", Swbench.Alloc.words s);
    ("alloc_minor_words_per_step", s.Swbench.Alloc.minor_words);
    ("alloc_major_words_per_step", s.Swbench.Alloc.major_words);
    ("alloc_minor_collections_per_step", s.Swbench.Alloc.minor_collections);
  ]

let write_json path rows =
  let module J = Swtrace.Json in
  let doc =
    J.Obj
      [
        ("platform", J.Str (Swbench.Common.cfg ()).Swarch.Config.name);
        ( "benchmarks",
          J.Arr
            (List.map
               (fun (name, time, r2) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("ns_per_run", J.Num time);
                     ("r_square", J.Num r2);
                   ])
               rows) );
        ( "simulated",
          J.Obj
            (List.map
               (fun (k, v) -> (k, J.Num v))
               (simulated_figures () @ wall_figures () @ alloc_figures ())) );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." path

let main json platform_name domains =
  (try
     Swpar.Domains.set domains;
     Swbench.Common.set_platform (Swarch.Platform.resolve platform_name)
   with Invalid_argument msg ->
     prerr_endline ("bench: " ^ msg);
     exit 2);
  Fmt.pr "platform: %a (%d domain(s))@." Swarch.Platform.pp
    (Swbench.Common.cfg ()) (Swpar.Domains.get ());
  Fmt.pr "=== bechamel micro-benchmarks (one per table/figure) ===@.";
  let rows = run_benchmarks () in
  print_benchmarks rows;
  (match json with Some path -> write_json path rows | None -> ());
  Fmt.pr "@.=== regenerating all tables and figures (quick mode) ===@.";
  List.iter
    (fun (e : Swbench.Registry.experiment) ->
      Fmt.pr "@.--- %s ---@." e.Swbench.Registry.title;
      e.Swbench.Registry.run ~quick:true Fmt.stdout)
    Swbench.Registry.all

open Cmdliner

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the results machine-readably to $(docv).")

let platform =
  Arg.(
    value
    & opt string Swarch.Platform.default.Swarch.Platform.name
    & info [ "platform" ] ~docv:"NAME"
        ~doc:
          "Machine description to benchmark: a built-in platform name or a \
           key=value platform file.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Run the simulator over $(docv) OCaml domains.")

let () =
  let doc = "benchmark and regenerate the tables and figures of the paper" in
  let term = Term.(const main $ json $ platform $ domains) in
  exit (Cmd.eval (Cmd.v (Cmd.info "bench" ~doc) term))
