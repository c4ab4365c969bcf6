(** Full-workflow engine: the complete MD step on the simulated
    machine, with per-kernel simulated-time accounting.

    Two distinct services:

    - {!measure}: price one MD step for a given optimization level
      (the four bars of Figure 10) and report the Table 1 kernel
      breakdown.  The step is described declaratively as a {!Swstep}
      phase graph — each Table-1 row is one or more first-class phases
      with an executor and dependency edges — and evaluated by the
      swstep planner, serially (the paper's measured profile) or with
      communication overlapped behind independent compute
      ([~plan:Overlap], the RDMA-hides-halo ablation);
    - {!simulate_protected} and {!simulate}: actually integrate the
      equations of motion, running {!Mdcore.Workflow}'s step stages
      with the optimized (mixed-precision) short-range kernel in place
      of the reference one, producing the trajectory data behind the
      accuracy experiment (Figure 13). *)

module K = Kernel_common
module Md = Mdcore

(** The four optimization levels of Figure 10. *)
type version =
  | V_ori  (** unported baseline: everything on the MPE, plain MPI *)
  | V_cal  (** + optimized short-range calculation (Mark kernel, CPE PME) *)
  | V_list  (** + pair-list generation on the CPEs *)
  | V_other  (** + CPE update/constraints, fast I/O, RDMA *)

(** All versions, in Figure 10 order. *)
let versions = [ V_ori; V_cal; V_list; V_other ]

(** [version_name v] is the Figure 10 label. *)
let version_name = function
  | V_ori -> "Ori"
  | V_cal -> "Cal"
  | V_list -> "List"
  | V_other -> "Other"

type features = {
  force : Variant.t;
  pme_on_cpe : bool;
  nsearch_cpe : bool;
  fast_update : bool;
  fast_io : bool;
  transport : Swcomm.Network.transport;
}

(** [features_of_version v] expands a Figure 10 level into concrete
    choices. *)
let features_of_version = function
  | V_ori ->
      {
        force = Variant.Ori;
        pme_on_cpe = false;
        nsearch_cpe = false;
        fast_update = false;
        fast_io = false;
        transport = Swcomm.Network.Mpi;
      }
  | V_cal ->
      {
        force = Variant.Mark;
        pme_on_cpe = true;
        nsearch_cpe = false;
        fast_update = false;
        fast_io = false;
        transport = Swcomm.Network.Mpi;
      }
  | V_list ->
      {
        force = Variant.Mark;
        pme_on_cpe = true;
        nsearch_cpe = true;
        fast_update = false;
        fast_io = false;
        transport = Swcomm.Network.Mpi;
      }
  | V_other ->
      {
        force = Variant.Mark;
        pme_on_cpe = true;
        nsearch_cpe = true;
        fast_update = true;
        fast_io = true;
        transport = Swcomm.Network.Rdma;
      }

(** Table 1 row labels, in table order. *)
let table1_rows =
  [
    "Domain decomp.";
    "Neighbor search";
    "Force";
    "Wait + comm. F";
    "NB X/F buffer ops";
    "Update";
    "Constraints";
    "Comm. energies";
    "Write traj.";
    "Rest";
  ]

(* trace span names of the Table-1 rows: the step-timeline slugs *)
let row_span_names =
  [
    ("Domain decomp.", "domain-decomp");
    ("Neighbor search", "nsearch");
    ("Force", "force");
    ("Wait + comm. F", "wait-comm-f");
    ("NB X/F buffer ops", "buffer-ops");
    ("Update", "update");
    ("Constraints", "constraints");
    ("Comm. energies", "comm-energies");
    ("Write traj.", "write-traj");
    ("Rest", "rest");
  ]

type measurement = {
  step : Swstep.Plan.result;  (** the priced and scheduled phase graph *)
  step_time : float;  (** step makespan: serial sum or overlapped *)
  atoms_per_cg : int;  (** atoms actually simulated on the core group *)
  global_atoms : int;
      (** modelled global atom count, [atoms_per_cg * n_cg] — what the
          decomposed run represents after per-CG rounding *)
  read_miss : float;  (** force-kernel read-cache miss ratio, if cached *)
  nsearch_miss : float;  (** pair-list cache miss ratio of the level's path *)
}

(** [rows m] lists (Table 1 row label, seconds) in table order; the
    values sum to [m.step_time] under either plan. *)
let rows m = m.step.Swstep.Plan.rows

(** [row m label] is one Table 1 row (0 when absent). *)
let row m label = Swstep.Plan.row m.step label

(** Neighbour-list refresh interval of the priced step: Table 3's
    nstlist, from {!Mdcore.Workflow.default_config}. *)
let nstlist = Md.Workflow.default_config.Md.Workflow.nstlist

(** Trajectory-output interval of the priced step, in steps. *)
let steps_per_frame = 100

(** [phases_of_features f ...] builds the declarative step graph for
    one optimization level: each Table-1 row becomes one or more
    phases whose executor picks the level's code path, and whose
    dependency edges encode what the overlap plan may hide (the halo
    exchange depends only on the pair list, so it can run behind the
    force kernel; the update needs the remote forces back, so it
    waits).  Cross-phase data (pair list, kernel outcome) flows
    through the [Simulated] closures in declaration order. *)
let phases_of_features (cfg : Swarch.Config.t) f ~sys ~n ~box ~rcut ~total_atoms
    ~n_cg ~pipelined ~faults ~pairs ~ns_stats ~outcome =
  let module P = Swstep.Phase in
  let module T = Swtrace.Trace in
  let nsearch_exec cg =
    Swarch.Core_group.reset cg;
    let pl, stats = Nsearch_cpe.run sys cg ~kind:Nsearch_cpe.Two_way ~rlist:rcut in
    pairs := Some pl;
    ns_stats := Some stats;
    if f.nsearch_cpe then Swarch.Core_group.elapsed cg
    else
      (* the original list builder runs serially on the MPE: candidate
         sweep plus exact refinement of sphere-passing pairs *)
      P.mpe_time cfg
        (P.per_atom ~flops:40.0 ~bytes:80.0 stats.Nsearch_cpe.candidates)
      +. P.mpe_time cfg
           (P.per_atom ~flops:160.0 ~bytes:32.0 stats.Nsearch_cpe.accepted)
  in
  let force_exec cg =
    let o = Kernel.run ~pipelined ?faults sys (Option.get !pairs) cg f.force in
    outcome := Some o;
    o.Kernel.elapsed
  in
  let pme_grid = Swcomm.Scaling.grid_for box.Md.Box.lx in
  let pme_exec _cg =
    let t =
      if f.pme_on_cpe then Pme_model.cpe_time cfg ~n_atoms:n ~grid:pme_grid
      else Pme_model.mpe_time cfg ~n_atoms:n ~grid:pme_grid
    in
    if T.enabled () then
      T.span_here ~cat:"phase-detail" Swtrace.Track.Mpe
        (if f.pme_on_cpe then "pme:cpe" else "pme:mpe")
        ~dur:t;
    t
  in
  let io_exec _cg =
    let path =
      if f.fast_io then Swio.Io_model.Fast else Swio.Io_model.Standard
    in
    Swio.Io_model.frame_time ~path ~n_atoms:n
  in
  let stream w =
    if f.force = Variant.Ori then P.Mpe_analytic w else P.Cpe_streamed w
  in
  let upd w = if f.fast_update then P.Cpe_streamed w else P.Mpe_analytic w in
  let global_edge = box.Md.Box.lx *. (float_of_int n_cg ** (1.0 /. 3.0)) in
  let request =
    {
      Swcomm.Step_comm.net = Swcomm.Network.of_platform cfg;
      transport = f.transport;
      total_atoms;
      ranks = n_cg;
      rcut;
      box_edge = global_edge;
      pme_grid = Swcomm.Scaling.grid_for global_edge;
      compute_time = 0.0 (* filled with the sync window by the planner *);
      faults;
    }
  in
  let comm part = P.Comm { request; part } in
  [
    P.v "nsearch" ~row:"Neighbor search" ~sync:true
      (P.Amortized
         (nstlist, P.v "nsearch-pass" ~row:"Neighbor search"
            (P.Simulated nsearch_exec)));
    P.v "force" ~row:"Force" ~sync:true ~deps:[ "nsearch" ]
      (P.Simulated force_exec);
    P.v "pme" ~row:"Force" ~sync:true ~deps:[ "force" ] (P.Simulated pme_exec);
    (* gather/scatter between atom and cluster order *)
    P.v "buffer-ops" ~row:"NB X/F buffer ops" ~sync:true ~deps:[ "force" ]
      (stream (P.per_atom ~flops:2.0 ~bytes:24.0 n));
    (* the update needs the neighbour forces back: this edge is the
       seam the overlap plan exposes as residual wait *)
    P.v "update" ~row:"Update" ~sync:true ~deps:[ "buffer-ops"; "halo" ]
      (upd (P.per_atom ~flops:9.0 ~bytes:72.0 n));
    P.v "constraints" ~row:"Constraints" ~sync:true ~deps:[ "update" ]
      (upd (P.per_atom ~flops:100.0 ~bytes:60.0 n));
    (* positions out before the force loop, forces back after; ready as
       soon as the pair list is, so overlap hides it behind the kernel *)
    P.v "halo" ~row:"Wait + comm. F" ~deps:[ "nsearch" ] (comm P.Halo);
    P.v "pme-transpose" ~row:"Wait + comm. F" ~deps:[ "nsearch" ]
      (comm P.Pme_transpose);
    P.v "comm-energies" ~row:"Comm. energies" ~deps:[ "constraints" ]
      (comm P.Energies);
    P.v "domain-decomp" ~row:"Domain decomp." (comm P.Domain_decomp);
    P.v "write-traj" ~row:"Write traj." ~deps:[ "constraints" ]
      (P.Amortized
         (steps_per_frame, P.v "write-frame" ~row:"Write traj."
            (P.Simulated io_exec)));
    (* everything else: bookkeeping, energy summation, logging *)
    P.v "rest" ~row:"Rest" (P.Mpe_analytic (P.per_atom ~flops:1.0 ~bytes:8.0 n));
  ]

(** [water_system ~seed ~particles] builds the Table 3 water system
    one core group simulates: [particles / 3] SPC/E molecules (at
    least 4) from [seed], with PME's real-space Ewald term at a 1.0 nm
    cut-off clamped to 0.45 of the shortest box edge.  Returns the
    state, its clusters and the nonbonded parameters; {!pack} turns
    them into the kernel system. *)
let water_system ~seed ~particles =
  let st = Md.Water.build ~molecules:(max 4 (particles / 3)) ~seed () in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos (Md.Md_state.n_atoms st) in
  (st, cl, params)

(** [pack cfg (st, cl, params)] is the packed kernel system of a
    {!water_system}. *)
let pack cfg ((st : Md.Md_state.t), cl, params) =
  K.make cfg ~box:st.box ~params ~cl ~topo:st.topo ~ff:st.ff ~pos:st.pos

(** [measure ?cfg ?pipelined ?plan ~version ~total_atoms ~n_cg ()]
    prices one MD step of the water benchmark at the given
    optimization level: [total_atoms] split over [n_cg] core groups
    (the per-CG slice is simulated in full; communication is modelled
    analytically).  Neighbour search is amortized over {!nstlist}
    steps and trajectory output over {!steps_per_frame} (Table 1
    measures runs that write output).  [pipelined] runs the
    short-range kernel through the swsched double-buffer pipeline
    (see {!Kernel.run}).  [plan] selects the swstep schedule:
    [Serial] (default) reproduces the paper's measured profile;
    [Overlap] hides communication behind independent compute the way
    the RDMA port does.  [faults] prices the step over a degraded
    machine: dead CPEs re-striped, slow CPEs stretching the critical
    path, degraded links inflating the halo (with the zero plan,
    every output is bit-identical to no injector at all). *)
let measure ?(cfg = Swarch.Config.default) ?(pipelined = false)
    ?(plan = Swstep.Plan.Serial) ?faults ~version ~total_atoms ~n_cg () =
  if n_cg < 1 then invalid_arg "Engine.measure: n_cg must be positive";
  (* the boundary check: a nonsensical machine description fails fast
     here instead of producing nonsense times downstream *)
  Swarch.Config.validate cfg;
  let module T = Swtrace.Trace in
  let step_t0 = T.now Swtrace.Track.Mpe in
  let f = features_of_version version in
  (* round to nearest: truncation silently dropped up to [n_cg - 1]
     atoms of the modelled global system *)
  let atoms_per_cg = max 12 ((total_atoms + (n_cg / 2)) / n_cg) in
  let ((st, _, params) as water) = water_system ~seed:2019 ~particles:atoms_per_cg in
  let sys = pack cfg water in
  let rcut = params.Md.Nonbonded.rcut in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let cg = Swarch.Core_group.create cfg in
  (* degraded machine: install slowdowns/stalls on the group and put
     the dead-CPE re-stripe decisions on the fault track *)
  (match faults with
  | None -> ()
  | Some inj ->
      let p = Swfault.Injector.plan inj in
      Swarch.Core_group.apply_faults cg ~slow:p.Swfault.Plan.cpe_slowdown
        ~stall:p.Swfault.Plan.cpe_stall_s;
      List.iter
        (fun id ->
          let fid =
            Swfault.Injector.inject inj ~kind:"cpe-dead"
              ~args:[ ("cpe", float_of_int id) ]
              ()
          in
          Swfault.Injector.recover inj ~id:fid ~kind:"re-stripe" ())
        (Swfault.Injector.dead inj));
  let pairs = ref None and ns_stats = ref None and outcome = ref None in
  let phases =
    phases_of_features cfg f ~sys ~n ~box ~rcut ~total_atoms ~n_cg ~pipelined
      ~faults ~pairs ~ns_stats ~outcome
  in
  let step =
    Swstep.Phase.make ~label:(version_name version) ~rows:table1_rows phases
  in
  let result = Swstep.Plan.run ~mode:plan ~cfg ~cg ~t0:step_t0 step in
  Swstep.Plan.emit result ~t0:step_t0 ~row_names:row_span_names
    ~args:[ ("atoms", float_of_int n); ("ranks", float_of_int n_cg) ];
  let read_miss =
    match !outcome with
    | Some { Kernel.stats = Some { Kernel_cpe.read_stats = Some s; _ }; _ } ->
        Swcache.Stats.miss_ratio s
    | _ -> 0.0
  in
  let nsearch_miss =
    match !ns_stats with
    | Some s -> s.Nsearch_cpe.miss_ratio
    | None -> 0.0
  in
  {
    step = result;
    step_time = result.Swstep.Plan.total;
    atoms_per_cg = n;
    global_atoms = n * n_cg;
    read_miss;
    nsearch_miss;
  }

(** [trace_steps ?cfg ?pipelined ?plan ?faults ~version ~total_atoms
    ~n_cg ~steps ()] calls {!measure} [steps] times with the recorder
    running: each call builds the same fresh system and prices its
    first step again, and the copies are laid end to end on the trace
    clock (phases on the MPE track, kernel detail on the CPE tracks,
    communication on the network track).
    They are copies of one step, not consecutive MD steps: no position
    moves between them.  Returns the last copy's measurement; call
    {!Swtrace.Trace.enable} first or the run degenerates to plain
    repeated {!measure}. *)
let trace_steps ?cfg ?pipelined ?plan ?faults ~version ~total_atoms ~n_cg ~steps
    () =
  if steps < 1 then invalid_arg "Engine.trace_steps: steps must be positive";
  let last = ref None in
  for _ = 1 to steps do
    last :=
      Some
        (measure ?cfg ?pipelined ?plan ?faults ~version ~total_atoms ~n_cg ())
  done;
  Option.get !last

(* ------------------------------------------------------------------ *)
(* Real dynamics with the optimized kernel (Figure 13). *)

type sample = { step : int; total_energy : float; temperature : float }

(** [simulate_protected ?cfg ?variant ?dt ?temp ?equil_steps ?pipelined
    ?faults ?checkpoint_every ?restart ?on_checkpoint ~molecules ~seed
    ~steps ~sample_every ()] runs real water dynamics on the Fig-13
    system ({!Mdcore.Workflow.water_box}, prepared by
    {!Mdcore.Workflow.equilibrate}).  Each step runs the
    {!Mdcore.Workflow} stages with the optimized mixed-precision kernel
    (default [Mark]) in the short-range slot, so PME, constraints and
    integration follow the reference path — exactly the split of the
    paper's port.

    The protection machinery is off unless asked for: [faults] injects
    the plan's LDM flips (each rolling the trajectory back to the last
    checkpoint) and degrades the machine the kernel runs on;
    [checkpoint_every] captures a {!Swio.Checkpoint} every N steps
    (rounded up to the pair-list cadence; with faults but no explicit
    interval, every rebuild); [restart] resumes a checkpointed
    trajectory bit-identically; [on_checkpoint] observes each capture
    (e.g. to write it to disk).  Returns the energy/temperature samples,
    the final particle state and the {!Swfault.Recovery.stats} of what
    protection cost. *)
let simulate_protected ?(cfg = Swarch.Config.default) ?(variant = Variant.Mark)
    ?(dt = 0.001) ?(temp = 300.0) ?(equil_steps = 0) ?(pipelined = false)
    ?faults ?checkpoint_every ?restart ?on_checkpoint ~molecules ~seed ~steps
    ~sample_every () =
  Swarch.Config.validate cfg;
  let w = Md.Workflow.water_box ~dt ~temp ~molecules ~seed in
  let st = w.Md.Workflow.state and energy = w.Md.Workflow.energy in
  let nstlist = w.Md.Workflow.config.Md.Workflow.nstlist in
  let n = Md.Md_state.n_atoms st in
  let stats = Swfault.Recovery.stats_zero () in
  (* checkpoints are only taken at pair-list rebuild boundaries:
     rounding the interval up to a multiple of [nstlist] makes the
     post-restore neighbour search line up, which is what keeps
     resumption bit-exact *)
  let cadence =
    match checkpoint_every with
    | Some k when k > 0 -> Some ((k + nstlist - 1) / nstlist * nstlist)
    | Some _ -> invalid_arg "Engine.simulate: checkpoint_every must be positive"
    | None -> ( match faults with Some _ -> Some nstlist | None -> None)
  in
  (match restart with
  | None -> Md.Workflow.equilibrate w ~seed ~steps:equil_steps
  | Some (ck : Swio.Checkpoint.t) ->
      (* restart: the checkpoint already is the running trajectory, so
         it replaces minimization, thermalization and equilibration *)
      if ck.Swio.Checkpoint.n_atoms <> n then
        invalid_arg "Engine.simulate: checkpoint atom count mismatch";
      if
        ck.Swio.Checkpoint.platform <> ""
        && ck.Swio.Checkpoint.platform <> cfg.Swarch.Config.name
      then
        invalid_arg
          (Printf.sprintf
             "Engine.simulate: checkpoint was taken on platform %s, \
              restarting on %s would not be bit-faithful"
             ck.Swio.Checkpoint.platform cfg.Swarch.Config.name);
      if ck.Swio.Checkpoint.step < 0 || ck.Swio.Checkpoint.step mod nstlist <> 0
      then invalid_arg "Engine.simulate: checkpoint step not nstlist-aligned";
      if ck.Swio.Checkpoint.step >= steps then
        invalid_arg "Engine.simulate: checkpoint is at or past the last step";
      ignore
        (Swio.Checkpoint.restore ck ~pos:st.Md.Md_state.pos
           ~vel:st.Md.Md_state.vel);
      w.Md.Workflow.step_count <- ck.Swio.Checkpoint.step);
  let cg = Swarch.Core_group.create cfg in
  (* degraded machine: slow/stalled CPEs charge more per kernel; dead
     CPEs are re-striped inside {!Kernel.run} *)
  (match faults with
  | None -> ()
  | Some inj ->
      let p = Swfault.Injector.plan inj in
      Swarch.Core_group.apply_faults cg ~slow:p.Swfault.Plan.cpe_slowdown
        ~stall:p.Swfault.Plan.cpe_stall_s);
  let ckpt_cost =
    Swfault.Recovery.checkpoint_cost cfg
      ~frame_s:(Swio.Io_model.frame_time ~path:Swio.Io_model.Fast ~n_atoms:n)
  in
  let take_checkpoint s =
    let ck =
      Swio.Checkpoint.capture ~platform:cfg.Swarch.Config.name ~step:s
        ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel ~n_atoms:n ()
    in
    stats.Swfault.Recovery.checkpoints <- stats.Swfault.Recovery.checkpoints + 1;
    stats.Swfault.Recovery.checkpoint_s <-
      stats.Swfault.Recovery.checkpoint_s +. ckpt_cost;
    (match on_checkpoint with Some f -> f ck | None -> ());
    ck
  in
  let last_ckpt =
    ref
      (match restart with
      | Some ck -> Some ck
      | None -> if cadence <> None then Some (take_checkpoint 0) else None)
  in
  let samples = ref [] in
  let since_ckpt = ref 0.0 in
  while w.Md.Workflow.step_count < steps do
    let s = w.Md.Workflow.step_count + 1 in
    Swtrace.Trace.push ~cat:"step" Swtrace.Track.Mpe "step:md";
    Md.Workflow.search_if_due w;
    Md.Workflow.start_forces w;
    (* the short-range slot: the optimized kernel on the core group *)
    let sys =
      K.make cfg ~box:st.Md.Md_state.box ~params:w.Md.Workflow.config.Md.Workflow.nb
        ~cl:w.Md.Workflow.cluster ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
        ~pos:st.Md.Md_state.pos
    in
    let outcome = Kernel.run ~pipelined ?faults sys w.Md.Workflow.pairs cg variant in
    (* an LDM bit flip is detected when the per-CPE force copies are
       reduced: the step's forces are untrustworthy, so roll back to
       the last checkpoint and replay from there (the flip is consumed
       — the replayed step runs clean, so recovery terminates) *)
    let flip =
      match faults with
      | Some inj -> Swfault.Injector.ldm_flip inj ~step:s
      | None -> false
    in
    if flip then begin
      let inj = Option.get faults in
      let ck = Option.get !last_ckpt in
      let fid =
        Swfault.Injector.inject inj ~kind:"ldm-flip"
          ~args:[ ("step", float_of_int s) ]
          ()
      in
      ignore
        (Swio.Checkpoint.restore ck ~pos:st.Md.Md_state.pos
           ~vel:st.Md.Md_state.vel);
      Swfault.Injector.recover inj ~id:fid ~kind:"rollback"
        ~args:[ ("to_step", float_of_int ck.Swio.Checkpoint.step) ]
        ();
      stats.Swfault.Recovery.rollbacks <- stats.Swfault.Recovery.rollbacks + 1;
      stats.Swfault.Recovery.replayed_steps <-
        stats.Swfault.Recovery.replayed_steps + (s - ck.Swio.Checkpoint.step);
      stats.Swfault.Recovery.replay_s <-
        stats.Swfault.Recovery.replay_s +. !since_ckpt +. outcome.Kernel.elapsed;
      since_ckpt := 0.0;
      (* drop the samples recorded past the checkpoint — the replay
         records them again, identically *)
      samples :=
        List.filter (fun smp -> smp.step <= ck.Swio.Checkpoint.step) !samples;
      Swtrace.Trace.pop Swtrace.Track.Mpe;
      w.Md.Workflow.step_count <- ck.Swio.Checkpoint.step
    end
    else begin
      K.scatter_forces sys outcome.Kernel.result st.Md.Md_state.force;
      energy.Md.Energy.lj <- K.e_lj outcome.Kernel.result;
      energy.Md.Energy.coulomb_sr <- K.e_coul outcome.Kernel.result;
      Md.Workflow.finish_forces w;
      Md.Workflow.update w;
      if s mod sample_every = 0 then
        samples :=
          {
            step = s;
            total_energy = Md.Energy.total energy;
            temperature = Md.Md_state.temperature st;
          }
          :: !samples;
      (match cadence with
      | Some c when s mod c = 0 -> begin
          last_ckpt := Some (take_checkpoint s);
          since_ckpt := 0.0
        end
      | _ -> since_ckpt := !since_ckpt +. outcome.Kernel.elapsed);
      Swtrace.Trace.pop Swtrace.Track.Mpe
    end
  done;
  (List.rev !samples, st, stats)

(** [simulate ?cfg ?variant ?dt ?temp ?equil_steps ?pipelined ~molecules
    ~seed ~steps ~sample_every ()] is {!simulate_protected} without
    protection, keeping only the samples: the optimized curve of
    Figure 13. *)
let simulate ?cfg ?variant ?dt ?temp ?equil_steps ?pipelined ~molecules ~seed
    ~steps ~sample_every () =
  let samples, _, _ =
    simulate_protected ?cfg ?variant ?dt ?temp ?equil_steps ?pipelined
      ~molecules ~seed ~steps ~sample_every ()
  in
  samples
