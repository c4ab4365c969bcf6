(** Ablation studies (beyond the paper's figures).

    The paper fixes several design parameters without sweeping them:
    the ~800 B read-cache line (8 packages), the 32-line write cache,
    the particle-package aggregation itself, and DMA over gld/gst.
    These ablations vary each choice in the simulator and show why the
    published configuration is the right one. *)

module Md = Mdcore
module K = Swgmx.Kernel_common
module T = Table_render

(* run the Mark kernel with custom cache geometry by temporarily
   rebuilding the spec; geometry lives in Kernel_common, so this
   ablation uses the lower-level cache machinery directly *)

(** [read_line_sweep ~quick ()] sweeps the read-cache line length
    (packages per line) at fixed total capacity and reports miss ratio
    and DMA time for the force-kernel access stream. *)
let read_line_sweep ~quick () =
  let particles = if quick then 3000 else 12000 in
  let p = Common.prepare ~particles () in
  let sys = p.Common.sys in
  let capacity = 512 (* packages *) in
  List.map
    (fun line_elts ->
      let n_lines = capacity / line_elts in
      let cost = Swarch.Cost.create () in
      let rc =
        Swcache.Read_cache.create (Common.cfg ()) cost ~ways:1 ~backing:sys.K.pkg_aos
          ~elt_floats:Swgmx.Package.floats ~line_elts ~n_lines ()
      in
      (* replay the kernel's j-stream through the cache *)
      Md.Pair_list.iter_pairs p.Common.pairs (fun _ cj ->
          ignore (Swcache.Read_cache.touch rc cj));
      let stats = Swcache.Read_cache.stats rc in
      (line_elts, Swcache.Stats.miss_ratio stats, cost.Swarch.Cost.dma_time_s))
    [ 1; 2; 4; 8; 16; 32 ]

(** [package_sweep ~quick ()] compares per-element fetching (the
    original code: one 8 B DMA per field) against whole-package
    fetches, reproducing the Section 3.1 motivation. *)
let package_sweep ~quick () =
  let particles = if quick then 3000 else 12000 in
  let p = Common.prepare ~particles () in
  let n_fetches = Md.Pair_list.n_pairs p.Common.pairs in
  List.map
    (fun (label, bytes, transfers_per_pkg) ->
      let cost = Swarch.Cost.create () in
      let total =
        int_of_float
          (Float.round (float_of_int n_fetches *. transfers_per_pkg))
      in
      for _ = 1 to total do
        Swarch.Dma.get (Common.cfg ()) cost ~bytes
      done;
      (label, cost.Swarch.Cost.dma_time_s))
    [
      ("per-field (8 B x 20)", 8, 20.0);
      ("per-particle (24 B x 4)", 24, 4.0);
      ("particle package (96 B)", Swgmx.Package.bytes, 1.0);
      (* one 768 B line fill serves eight package fetches *)
      ("cache line (768 B / 8)", 8 * Swgmx.Package.bytes, 0.125);
    ]

(** [gld_vs_dma ~quick ()] prices the same package stream through
    global load/store instead of DMA: the reason all traffic goes
    through the DMA engine. *)
let gld_vs_dma ~quick () =
  let particles = if quick then 3000 else 12000 in
  let p = Common.prepare ~particles () in
  let n_fetches = Md.Pair_list.n_pairs p.Common.pairs in
  let dma_cost = Swarch.Cost.create () in
  for _ = 1 to n_fetches do
    Swarch.Dma.get (Common.cfg ()) dma_cost ~bytes:Swgmx.Package.bytes
  done;
  let gld_cost = Swarch.Cost.create () in
  (* one gld per 8-byte word of the package *)
  Swarch.Cost.gld gld_cost (n_fetches * (Swgmx.Package.bytes / 8));
  ( dma_cost.Swarch.Cost.dma_time_s,
    Swarch.Cost.cpe_compute_time (Common.cfg ()) gld_cost )

(** [write_cache_sweep ~quick ()] sweeps the number of write-cache
    lines and reports the deferred-update miss ratio. *)
let write_cache_sweep ~quick () =
  let particles = if quick then 3000 else 12000 in
  let p = Common.prepare ~particles () in
  let sys = p.Common.sys in
  List.map
    (fun n_lines ->
      let cost = Swarch.Cost.create () in
      let copy = Array.make (sys.K.n_clusters * K.force_floats) 0.0 in
      let wc =
        Swcache.Write_cache.create (Common.cfg ()) cost ~with_marks:true ~copy
          ~elt_floats:K.force_floats ~line_elts:K.write_line_elts ~n_lines ()
      in
      Md.Pair_list.iter_pairs p.Common.pairs (fun _ cj ->
          Swcache.Write_cache.accumulate3 wc cj 1.0 1.0 1.0);
      Swcache.Write_cache.flush wc;
      let stats = Swcache.Write_cache.stats wc in
      (n_lines, Swcache.Stats.miss_ratio stats, cost.Swarch.Cost.dma_time_s))
    [ 8; 16; 32; 64 ]

(** [alignment ~quick ()] compares the package stream with and without
    128-bit alignment (Section 3.7's final optimization). *)
let alignment ~quick () =
  let particles = if quick then 3000 else 12000 in
  let p = Common.prepare ~particles () in
  let n_fetches = Md.Pair_list.n_pairs p.Common.pairs in
  let run aligned =
    let cost = Swarch.Cost.create () in
    for _ = 1 to n_fetches do
      Swarch.Dma.get ~aligned (Common.cfg ()) cost ~bytes:Swgmx.Package.bytes
    done;
    cost.Swarch.Cost.dma_time_s
  in
  (run true, run false)

(** One row of the overlap-schedule ablation. *)
type overlap_row = {
  channels : float;
  buffers : int;
  serial : float;  (** analytic serial bound, [compute + dma + mpe] *)
  scheduled : float;  (** swsched replay with this depth/channel count *)
  ideal : float;  (** analytic overlap bound, [max compute dma + mpe] *)
}

(** [overlap_schedule ~quick ()] records one Mark run and replays it
    through the swsched pipeline across buffer depths and DMA channel
    counts, bracketing each scheduled time between the analytic serial
    and ideal-overlap bounds.  The recording is shared: only the
    replay parameters vary, so the sweep isolates the scheduler. *)
let overlap_schedule ~quick () =
  let particles = if quick then 3000 else 12000 in
  let cg, recorder = Common.record_mark (Common.prepare ~particles ()) in
  let max_compute = Swarch.Core_group.max_compute_time cg in
  let dma_sum =
    Array.fold_left
      (fun s (c : Swarch.Cpe.t) -> s +. c.Swarch.Cpe.cost.Swarch.Cost.dma_time_s)
      0.0 cg.Swarch.Core_group.cpes
  in
  let mpe = Swarch.Mpe.time (Common.cfg ()) cg.Swarch.Core_group.mpe in
  List.concat_map
    (fun channels ->
      let dma = dma_sum /. channels in
      let serial = max_compute +. dma +. mpe in
      let ideal = Float.max max_compute dma +. mpe in
      List.map
        (fun buffers ->
          let s = Swsched.Schedule.run ~channels ~buffers (Common.cfg ()) recorder in
          let scheduled = s.Swsched.Schedule.elapsed +. mpe in
          { channels; buffers; serial; scheduled; ideal })
        [ 1; 2; 4 ])
    [ 1.0; 2.0; 4.0 ]

(** One row of the step-level comm/compute overlap ablation. *)
type step_overlap_row = {
  version : Swgmx.Engine.version;
  serial_wait : float;  (** "Wait + comm. F" row, serial plan *)
  overlap_wait : float;  (** same row when comm overlaps compute *)
  serial_step : float;
  overlap_step : float;
  hidden : float;  (** communication time hidden behind compute *)
  lower_bound : float;  (** dependency critical path of the step *)
}

(** [step_overlap ~quick ()] evaluates the swstep overlap plan on the
    decomposed workload: the same phase graph scheduled serially (the
    paper's measured profile) and with communication overlapped behind
    independent compute.  Under MPI the halo is long and only partly
    hidden; the RDMA port's shorter messages disappear almost entirely
    behind the force kernel — the paper's "Other" step as it would run
    with asynchronous communication. *)
let step_overlap ~quick () =
  let atoms = if quick then 24000 else 96000 in
  let n_cg = 16 in
  List.map
    (fun version ->
      let ms = Common.measure ~version ~total_atoms:atoms ~n_cg () in
      let mo =
        Common.measure ~plan:Swstep.Plan.Overlap ~version ~total_atoms:atoms
          ~n_cg ()
      in
      {
        version;
        serial_wait = Swgmx.Engine.row ms "Wait + comm. F";
        overlap_wait = Swgmx.Engine.row mo "Wait + comm. F";
        serial_step = ms.Swgmx.Engine.step_time;
        overlap_step = mo.Swgmx.Engine.step_time;
        hidden = mo.Swgmx.Engine.step.Swstep.Plan.comm_hidden;
        lower_bound = mo.Swgmx.Engine.step.Swstep.Plan.critical_path;
      })
    [ Swgmx.Engine.V_list; Swgmx.Engine.V_other ]

(** One row of the resilience-overhead ablation. *)
type resilience_row = {
  fault_rate : float;  (** per-transfer DMA error = per-message drop rate *)
  sched_elapsed : float;  (** pipelined Mark replay under the plan *)
  sched_retries : int;  (** DMA retries the schedule absorbed *)
  comm_s : float;  (** halo exchange under degraded links *)
}

(** [resilience_sweep ~quick ()] replays one recorded Mark run and one
    halo exchange under increasingly faulty plans (same injector seed
    throughout, so the failing sets nest and the overhead is monotone
    by construction), quantifying what recovery costs as faults get
    more frequent.  Rate 0 is the zero plan: its row must match a run
    with no injector at all. *)
let resilience_sweep ~quick () =
  let particles = if quick then 3000 else 12000 in
  let _, recorder = Common.record_mark (Common.prepare ~particles ()) in
  List.map
    (fun fault_rate ->
      let plan =
        {
          Swfault.Plan.zero with
          Swfault.Plan.dma_error_rate = fault_rate;
          Swfault.Plan.link_drop_rate = fault_rate;
          Swfault.Plan.link_degrade = 1.0 +. fault_rate;
        }
      in
      let inj = Swfault.Injector.create ~seed:2027 plan in
      let s = Swsched.Schedule.run ~buffers:2 ~faults:inj (Common.cfg ()) recorder in
      (* Engine.measure directly: Common's cache is not keyed by plan
         faults, and a degraded measurement must never be reused *)
      let m =
        Swgmx.Engine.measure ~cfg:(Common.cfg ()) ~version:Swgmx.Engine.V_other
          ~faults:inj
          ~total_atoms:(if quick then 24000 else 96000)
          ~n_cg:16 ()
      in
      {
        fault_rate;
        sched_elapsed = s.Swsched.Schedule.elapsed;
        sched_retries = s.Swsched.Schedule.dma_retries;
        comm_s = Swgmx.Engine.row m "Wait + comm. F";
      })
    [ 0.0; 0.02; 0.05; 0.1 ]

(** One row of the checkpoint-interval ablation. *)
type checkpoint_row = {
  interval : int;
  total : float;
  ckpt_overhead : float;
  rework : float;
}

(** [checkpoint_sweep ()] prices the checkpoint/restart policy across
    intervals on a fixed fault rate: frequent checkpoints pay capture
    cost, rare ones pay rework after each rollback, and the analytic
    optimum (Young's formula) sits in the valley between. *)
let checkpoint_sweep () =
  let steps = 100000 and fault_rate = 1e-3 in
  let step_s = 2e-3 in
  let ckpt_s =
    2.0 *. Swio.Io_model.frame_time ~path:Swio.Io_model.Fast ~n_atoms:12000
  in
  let restart_s = 10.0 *. ckpt_s in
  let rows =
    List.map
      (fun interval ->
        let p =
          Swfault.Recovery.price ~steps ~interval ~fault_rate ~step_s ~ckpt_s
            ~restart_s
        in
        {
          interval;
          total = p.Swfault.Recovery.total_s;
          ckpt_overhead = p.Swfault.Recovery.checkpoint_s;
          rework = p.Swfault.Recovery.rework_s;
        })
      [ 10; 20; 50; 100; 200; 500 ]
  in
  let opt = Swfault.Recovery.optimal_interval ~fault_rate ~step_s ~ckpt_s in
  (rows, opt)

(** One row of the cross-platform headroom ablation. *)
type platform_row = {
  variant : Swgmx.Variant.t;
  base_s : float;  (** kernel elapsed on the baseline platform *)
  pro_s : float;  (** kernel elapsed on the successor platform *)
}

(** [platform_headroom ~quick ()] reruns the kernel-variant progression
    on the SW26010 and SW26010-Pro machine descriptions: same physics,
    different LDM budget (cache geometry follows [ldm_bytes]), SIMD
    width (4 vs 8 lanes) and DMA curve.  The spread between the two
    columns per variant is the headroom each optimization inherits from
    the bigger machine — cache-bound variants track the LDM and DMA
    gains, vectorized ones additionally the lane count.  Also returns
    the whole-step times of the final engine version on both machines.
    The active platform is restored afterwards. *)
let platform_headroom ~quick () =
  let particles = if quick then 3000 else 24000 in
  let atoms = 24000 in
  let saved = Common.cfg () in
  let on cfg f =
    Common.set_platform cfg;
    Fun.protect ~finally:(fun () -> Common.set_platform saved) f
  in
  let elapsed cfg variant =
    on cfg (fun () ->
        let p = Common.prepare ~particles () in
        (Common.kernel_outcome p variant).Swgmx.Kernel.elapsed)
  in
  let rows =
    List.map
      (fun variant ->
        {
          variant;
          base_s = elapsed Swarch.Platform.sw26010 variant;
          pro_s = elapsed Swarch.Platform.sw26010_pro variant;
        })
      Swgmx.Variant.fig8
  in
  let step cfg =
    (Common.measure ~cfg ~version:Swgmx.Engine.V_other ~total_atoms:atoms
       ~n_cg:4 ())
      .Swgmx.Engine.step_time
  in
  (rows, step Swarch.Platform.sw26010, step Swarch.Platform.sw26010_pro, atoms)

(** [run ~quick ppf] renders all ablations. *)
let run ~quick ppf =
  Fmt.pf ppf "Ablation 1: read-cache line length (fixed 512-package capacity)@.";
  T.table ppf ~headers:[ "packages/line"; "miss ratio"; "DMA time" ]
    (List.map
       (fun (l, m, t) ->
         [ string_of_int l; T.fmt_pct m; Printf.sprintf "%.3f ms" (t *. 1e3) ])
       (read_line_sweep ~quick ()));
  Fmt.pf ppf "Ablation 2: data aggregation granularity (Section 3.1)@.";
  T.table ppf ~headers:[ "fetch granularity"; "DMA time" ]
    (List.map
       (fun (l, t) -> [ l; Printf.sprintf "%.3f ms" (t *. 1e3) ])
       (package_sweep ~quick ()));
  let dma_t, gld_t = gld_vs_dma ~quick () in
  Fmt.pf ppf "Ablation 3: DMA vs global load/store@.";
  T.table ppf ~headers:[ "path"; "time" ]
    [
      [ "DMA (96 B packages)"; Printf.sprintf "%.3f ms" (dma_t *. 1e3) ];
      [ "gld (8 B words)"; Printf.sprintf "%.3f ms" (gld_t *. 1e3) ];
    ];
  Fmt.pf ppf "Ablation 4: write-cache size (deferred update, with marks)@.";
  T.table ppf ~headers:[ "lines"; "miss ratio"; "DMA time" ]
    (List.map
       (fun (l, m, t) ->
         [ string_of_int l; T.fmt_pct m; Printf.sprintf "%.3f ms" (t *. 1e3) ])
       (write_cache_sweep ~quick ()));
  let t_aligned, t_unaligned = alignment ~quick () in
  Fmt.pf ppf "Ablation 5: 128-bit alignment (Section 3.7)@.";
  T.table ppf ~headers:[ "layout"; "DMA time" ]
    [
      [ "128-bit aligned"; Printf.sprintf "%.3f ms" (t_aligned *. 1e3) ];
      [ "unaligned"; Printf.sprintf "%.3f ms" (t_unaligned *. 1e3) ];
    ];
  Fmt.pf ppf
    "Ablation 7: scheduled DMA/compute overlap (swsched replay, Mark kernel)@.";
  T.table ppf
    ~headers:
      [ "channels"; "buffers"; "serial"; "scheduled"; "ideal overlap" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f" r.channels;
           string_of_int r.buffers;
           Printf.sprintf "%.3f ms" (r.serial *. 1e3);
           Printf.sprintf "%.3f ms" (r.scheduled *. 1e3);
           Printf.sprintf "%.3f ms" (r.ideal *. 1e3);
         ])
       (overlap_schedule ~quick ()));
  Fmt.pf ppf
    "Ablation 8: step-level comm/compute overlap (swstep plan, 16 CGs)@.";
  T.table ppf
    ~headers:
      [
        "version";
        "wait serial";
        "wait overlap";
        "step serial";
        "step overlap";
        "comm hidden";
        "crit. path";
      ]
    (List.map
       (fun r ->
         let ms t = Printf.sprintf "%.3f ms" (t *. 1e3) in
         [
           Swgmx.Engine.version_name r.version;
           ms r.serial_wait;
           ms r.overlap_wait;
           ms r.serial_step;
           ms r.overlap_step;
           ms r.hidden;
           ms r.lower_bound;
         ])
       (step_overlap ~quick ()));
  Fmt.pf ppf
    "Ablation 9a: resilience overhead vs fault rate (Mark replay + halo)@.";
  T.table ppf
    ~headers:[ "fault rate"; "scheduled"; "DMA retries"; "comm. F" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f%%" (r.fault_rate *. 100.0);
           Printf.sprintf "%.3f ms" (r.sched_elapsed *. 1e3);
           string_of_int r.sched_retries;
           Printf.sprintf "%.3f ms" (r.comm_s *. 1e3);
         ])
       (resilience_sweep ~quick ()));
  let rows, opt = checkpoint_sweep () in
  Fmt.pf ppf
    "Ablation 9b: checkpoint interval (100k steps, 1e-3 faults/step; \
     Young's optimum %d)@."
    opt;
  T.table ppf
    ~headers:[ "interval"; "total"; "checkpoint cost"; "rework" ]
    (List.map
       (fun r ->
         [
           string_of_int r.interval;
           Printf.sprintf "%.1f s" r.total;
           Printf.sprintf "%.2f s" r.ckpt_overhead;
           Printf.sprintf "%.2f s" r.rework;
         ])
       rows);
  let prows, step_base, step_pro, atoms = platform_headroom ~quick () in
  Fmt.pf ppf
    "Ablation 10: platform headroom, %s vs %s (kernel variants + %d-atom \
     step)@."
    Swarch.Platform.sw26010.Swarch.Platform.name
    Swarch.Platform.sw26010_pro.Swarch.Platform.name atoms;
  T.table ppf
    ~headers:
      [
        "variant";
        Swarch.Platform.sw26010.Swarch.Platform.name;
        Swarch.Platform.sw26010_pro.Swarch.Platform.name;
        "speedup";
      ]
    (List.map
       (fun r ->
         [
           Swgmx.Variant.name r.variant;
           Printf.sprintf "%.3f ms" (r.base_s *. 1e3);
           Printf.sprintf "%.3f ms" (r.pro_s *. 1e3);
           Printf.sprintf "%.2fx" (r.base_s /. r.pro_s);
         ])
       prows);
  T.table ppf
    ~headers:[ "whole step (Other)"; "time"; "speedup" ]
    [
      [
        Swarch.Platform.sw26010.Swarch.Platform.name;
        Printf.sprintf "%.3f ms" (step_base *. 1e3);
        "1.00x";
      ];
      [
        Swarch.Platform.sw26010_pro.Swarch.Platform.name;
        Printf.sprintf "%.3f ms" (step_pro *. 1e3);
        Printf.sprintf "%.2fx" (step_base /. step_pro);
      ];
    ]
