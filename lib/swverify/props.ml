(** The physics invariant catalog.

    Each property is a falsifiable claim about the stack, checked
    through the audited {!Tol}/{!Buf} comparators with its tolerance
    class stated up front:

    - exact-bits: schedule invariance, domain-count identity,
      fault-recovery identity, checkpoint round-trips, pair-kernel
      antisymmetry — determinism contracts, compared bit for bit;
    - ulp-budget: cross-platform (4- vs 8-lane) agreement of the
      mixed-precision kernels;
    - physical-drift: energy conservation, thermostat convergence,
      translation invariance, zero net force — claims about the
      physics, bounded by accumulated-rounding budgets.

    A property receives the execution {!Config.t}, a generator spec
    and a seed; everything it does is a pure function of those three,
    which is what makes a repro line sufficient to replay a failure. *)

module Md = Mdcore
module K = Swgmx.Kernel_common

type t = {
  name : string;
  axes : Config.axis list;
      (** config axes the property reads; the runner collapses the
          sweep matrix along the rest *)
  gens : Gen.spec list;  (** generator families the property accepts *)
  doc : string;  (** one line for the catalog listing *)
  run : Config.t -> gen:Gen.spec -> seed:int -> (unit, string) result;
}

let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* run a closure that checks with Tol/Buf (which raise Failure) and
   turn the raise into the property result *)
let checking f =
  match f () with
  | () -> Ok ()
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error ("invalid argument: " ^ msg)

(* --- reference-physics helpers ---------------------------------------- *)

(* reaction-field short-range pass on a generated state: double
   precision, no PME — the pure pairwise setting where net force is a
   theorem, not an approximation *)
let reference_forces (st : Md.Md_state.t) =
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs = Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut () in
  Md.Md_state.clear_forces st;
  let e = Md.Energy.create () in
  ignore (Md.Nonbonded.compute st cl pairs params e);
  e.Md.Energy.bonded <-
    Md.Bonded.compute box st.Md.Md_state.topo st.Md.Md_state.pos
      st.Md.Md_state.force;
  (Md.Fbuf.to_array st.Md.Md_state.force, e)

let l1_norm arr = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 arr
let max_abs arr = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 arr

let finite_or_report ~what arr =
  let bad = ref (-1) in
  Array.iteri (fun i x -> if !bad < 0 && not (Float.is_finite x) then bad := i) arr;
  if !bad >= 0 then
    failf "%s: non-finite value %h at index %d" what arr.(!bad) !bad
  else Ok ()

(* --- 1. pair-kernel force antisymmetry (exact-bits) ------------------- *)

(* Newton's third law at the pair level: the force a pair kernel
   assigns to j is the bitwise negation of the force on i, because
   every term is an even function of the displacement and IEEE sign
   flips are exact — including the +-0.0 displacement components the
   degenerate geometries produce.  Also pins the symmetry of the
   combined-rule C6/C12 tables, which the aggregate cancellation
   depends on. *)
let pair_antisymmetry (_ : Config.t) ~gen:_ ~seed =
  checking (fun () ->
      let rng = Md.Rng.create seed in
      let ff = Md.Forcefield.spce in
      let nt = Md.Forcefield.n_types ff in
      for t1 = 0 to nt - 1 do
        for t2 = 0 to nt - 1 do
          Tol.check ~what:"C6 table symmetric" Tol.exact
            (Md.Forcefield.c6 ff t1 t2) (Md.Forcefield.c6 ff t2 t1);
          Tol.check ~what:"C12 table symmetric" Tol.exact
            (Md.Forcefield.c12 ff t1 t2) (Md.Forcefield.c12 ff t2 t1)
        done
      done;
      for _ = 1 to 64 do
        let r2 = Md.Rng.uniform rng 0.04 1.44 in
        let qq = Md.Rng.uniform rng (-1.0) 1.0 in
        let c6 = Md.Rng.uniform rng 1e-4 1e-2 in
        let c12 = Md.Rng.uniform rng 1e-7 1e-5 in
        let beta = Md.Rng.uniform rng 2.0 4.0 in
        let krf, _ = Md.Coulomb.rf_constants ~rc:1.2 in
        let fr =
          Md.Lj.force_over_r ~c6 ~c12 r2
          +. Md.Coulomb.rf_force_over_r ~krf ~qq r2
          +. Md.Coulomb.ewald_real_force_over_r ~beta ~qq r2
        in
        if not (Float.is_finite fr) then
          failwith (Printf.sprintf "pair kernel non-finite at r2=%h" r2);
        (* displacement components spanning the sign edge cases *)
        List.iter
          (fun d ->
            Tol.check ~what:(Printf.sprintf "f(-d) = -f(d) at d=%h" d)
              Tol.exact
              (-.(fr *. d))
              (fr *. -.d))
          [ 0.3; -0.7; 0.0; -0.0; 1e-300; -1e-300 ]
      done)

(* --- 2. zero net force (physical-drift) -------------------------------- *)

(* Pairwise forces are antisymmetric, so the net force on a periodic
   box is zero up to accumulated rounding: budget the component sum by
   the L1 norm of everything that was added into it.  Degenerate
   generators (near-overlap, boundary atoms) push the force scale up
   by tens of orders of magnitude; the relative budget must hold
   regardless. *)
let zero_net_force (_ : Config.t) ~gen ~seed =
  let st = Gen.build gen ~seed in
  let f, _ = reference_forces st in
  Result.bind (finite_or_report ~what:"forces" f) (fun () ->
      checking (fun () ->
          let scale = l1_norm f in
          let tol = Tol.rel_abs ~rel:0.0 ~abs:((1e-13 *. scale) +. 1e-9) in
          let n = Array.length f / 3 in
          for c = 0 to 2 do
            let net = ref 0.0 in
            for i = 0 to n - 1 do
              net := !net +. f.((3 * i) + c)
            done;
            Tol.check
              ~what:
                (Printf.sprintf "net force component %d (L1 scale %.3g)" c scale)
              tol 0.0 !net
          done))

(* --- 3. translation invariance (physical-drift) ------------------------ *)

(* Shifting every atom by the same vector must not change the physics:
   energies and forces agree up to reassociation (cells and clusters
   are rebuilt from the shifted coordinates, so sums run in a
   different order).  The irreducible force floor is a marginal pair
   crossing the cut-off, where the truncated LJ force jumps — the
   energy is shift-continuous there, so its budget is tighter. *)
let translation_invariance (_ : Config.t) ~gen ~seed =
  let st = Gen.build gen ~seed in
  let f1, e1 = reference_forces st in
  let pot1 = Md.Energy.potential e1 in
  let box = st.Md.Md_state.box in
  let dx = 0.25 *. box.Md.Box.lx
  and dy = -0.125 *. box.Md.Box.ly
  and dz = 0.5 *. box.Md.Box.lz in
  let pos = st.Md.Md_state.pos in
  for i = 0 to (Md.Fbuf.length pos / 3) - 1 do
    Md.Fbuf.set pos (3 * i) (Md.Fbuf.get pos (3 * i) +. dx);
    Md.Fbuf.set pos ((3 * i) + 1) (Md.Fbuf.get pos ((3 * i) + 1) +. dy);
    Md.Fbuf.set pos ((3 * i) + 2) (Md.Fbuf.get pos ((3 * i) + 2) +. dz)
  done;
  let f2, e2 = reference_forces st in
  let pot2 = Md.Energy.potential e2 in
  checking (fun () ->
      let fscale = Float.max (max_abs f1) 1.0 in
      Tol.check ~what:"potential energy under box shift"
        (Tol.rel_abs ~rel:1e-9 ~abs:(1e-10 *. Float.abs pot1 +. 1e-9))
        pot1 pot2;
      (* LJ force discontinuity at the cut-off bounds the abs floor *)
      let rc = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
      let c6 = Md.Forcefield.c6 st.Md.Md_state.ff 0 0
      and c12 = Md.Forcefield.c12 st.Md.Md_state.ff 0 0 in
      let jump = Float.abs (Md.Lj.force_over_r ~c6 ~c12 (rc *. rc)) *. rc in
      Buf.check_arrays ~what:"forces under box shift"
        (Tol.rel_abs ~rel:1e-9 ~abs:(Float.max (2.0 *. jump) (1e-9 *. fscale)))
        f1 f2)

(* --- 4. energy conservation (physical-drift) --------------------------- *)

(* NVE: no thermostat, no PME, a pair-list skin so rebuilds do not
   teleport interactions.  The leapfrog + SHAKE integrator must hold
   total energy to a drift budget over the run — the invariant that
   catches a force/integrator mismatch no golden pin can see. *)
let energy_conservation (_ : Config.t) ~gen ~seed =
  checking (fun () ->
      let st = Gen.build gen ~seed in
      let box = st.Md.Md_state.box in
      let rcut = Float.min 0.4 (0.4 *. Md.Box.min_edge box) in
      let config =
        {
          Md.Workflow.dt = 0.001;
          nstlist = 5;
          rlist = rcut +. 0.05;
          nb = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field };
          pme_grid = None;
          thermostat = None;
        }
      in
      let w = Md.Workflow.create ~config st in
      ignore (Md.Workflow.minimize ~steps:40 w);
      Md.Md_state.thermalize st (Md.Rng.create (seed + 1)) 280.0;
      Md.Workflow.step w;
      let e0 = Md.Workflow.total_energy w in
      let scale =
        Md.Md_state.kinetic_energy st
        +. Float.abs (Md.Energy.potential w.Md.Workflow.energy)
      in
      Md.Workflow.run w 40;
      let e1 = Md.Workflow.total_energy w in
      if not (Float.is_finite e1) then
        failwith (Printf.sprintf "energy went non-finite: %h" e1);
      Tol.check ~what:(Printf.sprintf "NVE drift over 40 steps (scale %.4g)" scale)
        (Tol.rel_abs ~rel:0.0 ~abs:(0.02 *. scale))
        e0 e1)

(* --- 5. thermostat convergence (physical-drift) ------------------------ *)

(* Berendsen coupling must hold the box nearer t_ref than the box
   drifts on its own.  There is no known starting gap to close:
   [thermalize] draws unconstrained velocities, so the first SHAKE step
   removes their bond-direction components (500 K drawn, ~280-355 K
   read after one step); and the 40-step minimisation stops in a local
   minimum, so the heated box keeps releasing potential energy
   (uncoupled, ~490-720 K by step 60).  So the property prepares the
   same state twice, runs it once uncoupled and once coupled, and
   bounds the coupled run's deviation by the uncoupled run's.

   The bound.  Per step, Berendsen scales the temperature by
   lambda^2 = 1 + a (T_ref/T - 1), a = dt/tau, so (inside the lambda
   clamp) the deviation d = T - T_ref follows d <- (1 - a) d + h_k,
   where h_k is what step k's dynamics add; uncoupled, d <- d + h_k.
   From a shared start d0, after N steps:
     d_u = d0 + H,  d_c = (1-a)^N d0 + sum_k (1-a)^(N-1-k) h_k,
   with H = sum_k h_k.  When the heating does not speed up over the run
   (the box relaxes fastest first), the filtered sum is at most r H,
   r = (1 - (1-a)^N) / (a N) being its value at a constant rate; and
   H <= |d_u| + |d0|.  Hence
     |d_c| <= r (|d_u| + |d0|) + (1-a)^N |d0|.
   At tau = 0.02 ps, dt = 1 fs and N = 60, r = 0.32; the measured
   d_c/d_u is 0.20-0.37 on the nightly seeds.  The check allows 1.5 r
   (0.48): the heating of a 96-atom box is not strictly monotone, and
   the two runs' trajectories part.  A five times weaker coupling
   (r = 0.75, measured 0.69-0.78), no coupling (ratio 1) and coupling
   with the wrong sign (ratio > 1) all fail it. *)
let thermostat_convergence (_ : Config.t) ~gen ~seed =
  checking (fun () ->
      let t_ref = 300.0 and tau = 0.02 and dt = 0.001 and steps = 60 in
      (* the shared preparation, then [steps] steps under [thermostat];
         returns the temperatures at the start and the end *)
      let run thermostat =
        let st = Gen.build gen ~seed in
        let box = st.Md.Md_state.box in
        let rcut = Float.min 0.4 (0.4 *. Md.Box.min_edge box) in
        let config =
          {
            Md.Workflow.dt;
            nstlist = 5;
            rlist = rcut +. 0.05;
            nb = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field };
            pme_grid = None;
            thermostat = None;
          }
        in
        let w = Md.Workflow.create ~config st in
        ignore (Md.Workflow.minimize ~steps:40 w);
        Md.Md_state.thermalize st (Md.Rng.create (seed + 1)) 500.0;
        (* one uncoupled step lets SHAKE project the drawn velocities *)
        Md.Workflow.step w;
        let t0 = Md.Md_state.temperature st in
        Md.Workflow.run
          (Md.Workflow.create ~config:{ config with thermostat } st)
          steps;
        (t0, Md.Md_state.temperature st)
      in
      let t0, tu = run None in
      let _, tc = run (Some (Md.Thermostat.create ~t_ref ~tau ())) in
      if not (Float.is_finite tu && Float.is_finite tc) then
        failwith
          (Printf.sprintf "temperature went non-finite: %h uncoupled, %h coupled"
             tu tc);
      let d0 = Float.abs (t0 -. t_ref)
      and du = Float.abs (tu -. t_ref)
      and dc = Float.abs (tc -. t_ref) in
      let a = dt /. tau in
      let decay = (1.0 -. a) ** float_of_int steps in
      let r = (1.0 -. decay) /. (a *. float_of_int steps) in
      let bound = (1.5 *. r *. (du +. d0)) +. (decay *. d0) in
      if dc > bound then
        failwith
          (Printf.sprintf
             "thermostat did not couple: after %d steps from %.1f K the \
              coupled run is %.1f K off target, the uncoupled run %.1f K \
              (ratio %.2f); bound %.1f K"
             steps t0 dc du (dc /. du) bound))

(* --- 6. denormal robustness (physical-drift) --------------------------- *)

(* Denormal velocities at the bottom of the float scale must flow
   through kinetic energy, the integrator and the thermostat without
   generating NaN or infinity — the hostile-checkpoint scenario, fed
   through the live pipeline. *)
let denormal_robustness (_ : Config.t) ~gen ~seed =
  let st = Gen.build gen ~seed in
  let ke = Md.Md_state.kinetic_energy st in
  let temp = Md.Md_state.temperature st in
  if not (Float.is_finite ke && ke >= 0.0) then
    failf "kinetic energy of denormal velocities: %h" ke
  else if not (Float.is_finite temp && temp >= 0.0) then
    failf "temperature of denormal velocities: %h" temp
  else
    checking (fun () ->
        let box = st.Md.Md_state.box in
        let rcut = Float.min 0.4 (0.4 *. Md.Box.min_edge box) in
        let config =
          {
            Md.Workflow.dt = 0.001;
            nstlist = 5;
            rlist = rcut +. 0.05;
            nb = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field };
            pme_grid = None;
            thermostat = Some (Md.Thermostat.create ~t_ref:300.0 ~tau:0.1 ());
          }
        in
        let w = Md.Workflow.create ~config st in
        Md.Workflow.run w 5;
        let check_buf what buf =
          Md.Fbuf.iteri
            (fun i x ->
              if not (Float.is_finite x) then
                failwith (Printf.sprintf "%s[%d] = %h after 5 steps" what i x))
            buf
        in
        check_buf "pos" st.Md.Md_state.pos;
        check_buf "vel" st.Md.Md_state.vel;
        if not (Float.is_finite (Md.Workflow.total_energy w)) then
          failwith "total energy non-finite after 5 steps")

(* --- 7. schedule invariance (exact-bits) -------------------------------- *)

let sample_list_check what (a : Swgmx.Engine.sample list)
    (b : Swgmx.Engine.sample list) =
  if List.length a <> List.length b then
    failwith
      (Printf.sprintf "%s: sample counts differ: %d vs %d" what (List.length a)
         (List.length b));
  List.iter2
    (fun (x : Swgmx.Engine.sample) (y : Swgmx.Engine.sample) ->
      if x.Swgmx.Engine.step <> y.Swgmx.Engine.step then
        failwith
          (Printf.sprintf "%s: sample steps differ: %d vs %d" what
             x.Swgmx.Engine.step y.Swgmx.Engine.step);
      Tol.check
        ~what:(Printf.sprintf "%s: total energy at step %d" what x.Swgmx.Engine.step)
        Tol.exact x.Swgmx.Engine.total_energy y.Swgmx.Engine.total_energy;
      Tol.check
        ~what:(Printf.sprintf "%s: temperature at step %d" what x.Swgmx.Engine.step)
        Tol.exact x.Swgmx.Engine.temperature y.Swgmx.Engine.temperature)
    a b

let state_check what (a : Md.Md_state.t) (b : Md.Md_state.t) =
  Buf.check_fbuf ~what:(what ^ ": positions") Tol.exact a.Md.Md_state.pos
    b.Md.Md_state.pos;
  Buf.check_fbuf ~what:(what ^ ": velocities") Tol.exact a.Md.Md_state.vel
    b.Md.Md_state.vel

(* The schedule decides *when* simulated work happens, never *what* it
   computes: serial and pipelined kernel paths must produce
   bit-identical trajectories, and the swstep Overlap plan must price
   the same physics as Serial while never being slower. *)
let schedule_invariance (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let cfg = Config.cfg c in
      let molecules = Gen.molecules gen in
      let run pipelined =
        Swgmx.Engine.simulate_protected ~cfg ~pipelined ~molecules ~seed ~steps:10
          ~sample_every:2 ()
      in
      let s_ser, st_ser, _ = run false in
      let s_pip, st_pip, _ = run true in
      sample_list_check "serial vs pipelined" s_ser s_pip;
      state_check "serial vs pipelined" st_ser st_pip;
      let measure plan =
        Swgmx.Engine.measure ~cfg ~plan ~version:Swgmx.Engine.V_other
          ~total_atoms:(3 * molecules) ~n_cg:1 ()
      in
      let m_ser = measure Swstep.Plan.Serial in
      let m_ovl = measure Swstep.Plan.Overlap in
      (* physics-derived figures are schedule-independent bits *)
      if m_ser.Swgmx.Engine.atoms_per_cg <> m_ovl.Swgmx.Engine.atoms_per_cg then
        failwith "serial vs overlap: atoms_per_cg differ";
      Tol.check ~what:"serial vs overlap: read-cache miss ratio" Tol.exact
        m_ser.Swgmx.Engine.read_miss m_ovl.Swgmx.Engine.read_miss;
      Tol.check ~what:"serial vs overlap: nsearch miss ratio" Tol.exact
        m_ser.Swgmx.Engine.nsearch_miss m_ovl.Swgmx.Engine.nsearch_miss;
      if
        m_ovl.Swgmx.Engine.step_time
        > m_ser.Swgmx.Engine.step_time *. (1.0 +. 1e-12)
      then
        failwith
          (Printf.sprintf "overlap slower than serial: %h vs %h"
             m_ovl.Swgmx.Engine.step_time m_ser.Swgmx.Engine.step_time))

(* --- 8. platform invariance (ulp-budget) -------------------------------- *)

(* The 4-lane and 8-lane kernels round through single precision in a
   different lane grouping, so their sums reassociate: agreement is an
   ULP budget at single-precision scale, not bit identity — but both
   must sit within the mixed-precision envelope of the double
   reference, and structural outputs (pair counts) are exact. *)
let platform_invariance (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let st = Gen.build gen ~seed in
      let n = Md.Md_state.n_atoms st in
      let box = st.Md.Md_state.box in
      let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
      let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
      let cl = Md.Cluster.build box st.Md.Md_state.pos n in
      let pairs =
        Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut ()
      in
      (* double-precision reference *)
      Md.Md_state.clear_forces st;
      let e = Md.Energy.create () in
      ignore (Md.Nonbonded.compute st cl pairs params e);
      let ref_f = Md.Fbuf.to_array st.Md.Md_state.force in
      let fscale = Float.max 1.0 (max_abs ref_f) in
      let run name =
        match Swarch.Platform.find name with
        | None -> failwith (Printf.sprintf "platform %S not registered" name)
        | Some cfg ->
            let sys =
              K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo
                ~ff:st.Md.Md_state.ff ~pos:st.Md.Md_state.pos
            in
            let cg = Swarch.Core_group.create cfg in
            let outcome =
              Swgmx.Kernel.run ~pipelined:(Config.pipelined c) sys pairs cg
                Swgmx.Variant.Mark
            in
            let f = Md.Fbuf.create (3 * n) in
            K.scatter_forces sys outcome.Swgmx.Kernel.result f;
            (Md.Fbuf.to_array f, outcome.Swgmx.Kernel.result)
      in
      let f4, r4 = run "sw26010" in
      let f8, r8 = run "sw26010_pro" in
      if r4.K.pairs_in_cutoff <> r8.K.pairs_in_cutoff then
        failwith
          (Printf.sprintf "pair counts differ across platforms: %d vs %d"
             r4.K.pairs_in_cutoff r8.K.pairs_in_cutoff);
      (* mixed-precision envelope vs the double reference (both lanes) *)
      let envelope = Tol.rel_abs ~rel:0.0 ~abs:(2e-4 *. fscale) in
      Buf.check_arrays ~what:"4-lane vs double reference" envelope ref_f f4;
      Buf.check_arrays ~what:"8-lane vs double reference" envelope ref_f f8;
      (* cross-platform: reassociation at single precision only *)
      Buf.check_arrays ~what:"4-lane vs 8-lane forces"
        (Tol.rel_abs ~rel:1e-4 ~abs:(1e-4 *. fscale))
        f4 f8;
      Tol.check ~what:"LJ energy across platforms"
        (Tol.rel_abs ~rel:1e-4 ~abs:(1e-4 *. Float.abs (K.e_lj r4)))
        (K.e_lj r4) (K.e_lj r8))

(* --- 9. domain-count identity (exact-bits) ------------------------------ *)

let with_domains d f =
  let prev = Swpar.Domains.get () in
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set prev) f

let domain_identity (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let cfg = Config.cfg c in
      let molecules = Gen.molecules gen in
      let run d =
        with_domains d (fun () ->
            Swgmx.Engine.simulate_protected ~cfg ~pipelined:(Config.pipelined c)
              ~molecules ~seed ~steps:10 ~sample_every:2 ())
      in
      let other = if c.Config.domains = 1 then 2 else c.Config.domains in
      let s1, st1, _ = run 1 in
      let sn, stn, _ = run other in
      let what = Printf.sprintf "domains 1 vs %d" other in
      sample_list_check what s1 sn;
      state_check what st1 stn)

(* --- 10. fault-recovery identity (exact-bits) --------------------------- *)

(* LDM flips roll the trajectory back to the last checkpoint and
   replay; dead/slow CPEs re-stripe and re-price the kernels.  All of
   it must be invisible to the physics: the protected run's samples
   and final state match an unprotected run bit for bit. *)
let fault_recovery_identity (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let cfg = Config.cfg c in
      let molecules = Gen.molecules gen in
      let pipelined = Config.pipelined c in
      let baseline, st_base, _ =
        Swgmx.Engine.simulate_protected ~cfg ~pipelined ~molecules ~seed ~steps:12
          ~sample_every:2 ()
      in
      let plan =
        Swfault.Plan.of_string "ldm_flip=0.6,dma_error=0.2,cpe_slow=3:1.5"
      in
      let inj = Swfault.Injector.create ~seed:(seed + 17) plan in
      let protected_, st_prot, stats =
        Swgmx.Engine.simulate_protected ~cfg ~pipelined ~faults:inj ~molecules
          ~seed ~steps:12 ~sample_every:2 ()
      in
      sample_list_check "protected vs baseline" baseline protected_;
      state_check "protected vs baseline" st_base st_prot;
      (* the plan above fires with probability 0.6 per step for 12
         steps: a run where nothing ever rolled back means the
         injector is not wired through this path *)
      if stats.Swfault.Recovery.rollbacks = 0 then
        failwith "fault plan injected no rollbacks in 12 steps")

(* --- 11. checkpoint round-trip (exact-bits) ----------------------------- *)

let checkpoint_roundtrip (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let cfg = Config.cfg c in
      let molecules = Gen.molecules gen in
      let pipelined = Config.pipelined c in
      let cks = ref [] in
      let full, st_full, _ =
        Swgmx.Engine.simulate_protected ~cfg ~pipelined ~checkpoint_every:10
          ~on_checkpoint:(fun ck -> cks := ck :: !cks)
          ~molecules ~seed ~steps:14 ~sample_every:2 ()
      in
      let ck =
        match
          List.find_opt (fun ck -> ck.Swio.Checkpoint.step = 10) !cks
        with
        | Some ck -> ck
        | None -> failwith "no checkpoint captured at step 10"
      in
      (* the wire format must reproduce the capture bit for bit *)
      let ck' = Swio.Checkpoint.of_string (Swio.Checkpoint.to_string ck) in
      Buf.check_arrays ~what:"checkpoint pos round-trip" Tol.exact
        ck.Swio.Checkpoint.pos ck'.Swio.Checkpoint.pos;
      Buf.check_arrays ~what:"checkpoint vel round-trip" Tol.exact
        ck.Swio.Checkpoint.vel ck'.Swio.Checkpoint.vel;
      let resumed, st_res, _ =
        Swgmx.Engine.simulate_protected ~cfg ~pipelined ~restart:ck' ~molecules
          ~seed ~steps:14 ~sample_every:2 ()
      in
      let tail = List.filter (fun (s : Swgmx.Engine.sample) -> s.Swgmx.Engine.step > 10) full in
      sample_list_check "resumed vs uninterrupted tail" tail resumed;
      state_check "resumed vs uninterrupted" st_full st_res)

(* --- 12. offload identity (exact-bits) ---------------------------------- *)

(* The swoffload driver owns the tiling / DMA / pipeline choreography
   the kernels used to hand-roll.  Choreography decides *when*
   simulated work happens, never *what*: the driven kernel must agree
   bit for bit — energies, forces, pair counts and every cost
   accumulator — with the bare reference walk ([~reference:true]),
   which executes the same stages serially with no pool, recorder or
   pipeline. *)
let offload_identity (c : Config.t) ~gen ~seed =
  checking (fun () ->
      let cfg = Config.cfg c in
      let st = Gen.build gen ~seed in
      let n = Md.Md_state.n_atoms st in
      let box = st.Md.Md_state.box in
      let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
      let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
      let cl = Md.Cluster.build box st.Md.Md_state.pos n in
      let pairs =
        Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut ()
      in
      let sys =
        K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo
          ~ff:st.Md.Md_state.ff ~pos:st.Md.Md_state.pos
      in
      let cg = Swarch.Core_group.create cfg in
      let outcome =
        Swgmx.Kernel.run ~pipelined:(Config.pipelined c) sys pairs cg
          Swgmx.Variant.Mark
      in
      let r = outcome.Swgmx.Kernel.result in
      let cg_ref = Swarch.Core_group.create cfg in
      let r_ref, _ =
        Swgmx.Kernel_cpe.run ~reference:true sys pairs cg_ref
          (Swgmx.Kernel_cpe.spec_of_variant Swgmx.Variant.Mark)
      in
      if r.K.pairs_in_cutoff <> r_ref.K.pairs_in_cutoff then
        failwith
          (Printf.sprintf "offload vs reference: pair counts differ: %d vs %d"
             r.K.pairs_in_cutoff r_ref.K.pairs_in_cutoff);
      Tol.check ~what:"offload vs reference: LJ energy" Tol.exact (K.e_lj r)
        (K.e_lj r_ref);
      Tol.check ~what:"offload vs reference: Coulomb energy" Tol.exact
        (K.e_coul r) (K.e_coul r_ref);
      Buf.check_arrays ~what:"offload vs reference: forces" Tol.exact r.K.force
        r_ref.K.force;
      let tc = Swarch.Core_group.total_cost cg
      and tr = Swarch.Core_group.total_cost cg_ref in
      List.iter
        (fun (what, a, b) ->
          Tol.check ~what:("offload vs reference: " ^ what) Tol.exact a b)
        [
          ("scalar flops", tc.Swarch.Cost.scalar_flops, tr.Swarch.Cost.scalar_flops);
          ("simd ops", tc.Swarch.Cost.simd_ops, tr.Swarch.Cost.simd_ops);
          ("int ops", tc.Swarch.Cost.int_ops, tr.Swarch.Cost.int_ops);
          ("dma time", tc.Swarch.Cost.dma_time_s, tr.Swarch.Cost.dma_time_s);
          ("dma bytes", tc.Swarch.Cost.dma_bytes, tr.Swarch.Cost.dma_bytes);
          ( "dma transactions",
            tc.Swarch.Cost.dma_transactions,
            tr.Swarch.Cost.dma_transactions );
          ("gld count", tc.Swarch.Cost.gld_count, tr.Swarch.Cost.gld_count);
          ("gst count", tc.Swarch.Cost.gst_count, tr.Swarch.Cost.gst_count);
        ])

(* --- the catalog -------------------------------------------------------- *)

let water n = Gen.Water { molecules = n }

let all =
  [
    {
      name = "pair-antisymmetry";
      axes = [];
      gens = [ water 1 ];
      doc = "pair kernels: f(-d) is the bitwise negation of f(d); C6/C12 \
             tables symmetric [exact-bits]";
      run = pair_antisymmetry;
    };
    {
      name = "zero-net-force";
      axes = [];
      gens =
        [
          water 24;
          Gen.Sweep { molecules = 24; charge_scale = 1.25; lj_scale = 0.75 };
          Gen.Overlap { molecules = 24; dist = 1e-6 };
          Gen.Boundary { molecules = 24 };
        ];
      doc = "net force on the periodic box vanishes to the L1-scaled \
             rounding budget; all forces finite [physical-drift]";
      run = zero_net_force;
    };
    {
      name = "translation-invariance";
      axes = [];
      gens =
        [
          water 24;
          Gen.Sweep { molecules = 24; charge_scale = 0.8; lj_scale = 1.2 };
        ];
      doc = "energies and forces invariant under a uniform box shift \
             [physical-drift]";
      run = translation_invariance;
    };
    {
      name = "energy-conservation";
      axes = [];
      gens = [ water 32 ];
      doc = "NVE total energy drift bounded over 40 leapfrog+SHAKE steps \
             [physical-drift]";
      run = energy_conservation;
    };
    {
      name = "thermostat-convergence";
      axes = [];
      gens = [ water 32 ];
      doc = "Berendsen coupling (tau 0.02 ps) keeps the box within 1.5 r of \
             its uncoupled drift from t_ref over 60 steps, r = 0.32 the \
             constant-heating ratio [physical-drift]";
      run = thermostat_convergence;
    };
    {
      name = "denormal-robustness";
      axes = [];
      gens = [ Gen.Denormal_vel { molecules = 24 } ];
      doc = "denormal velocities never propagate NaN/inf through KE, \
             integrator or thermostat [physical-drift]";
      run = denormal_robustness;
    };
    {
      name = "schedule-invariance";
      axes = [ Config.Platform_axis; Config.Domains_axis ];
      gens = [ water 8 ];
      doc = "serial = pipelined bit-for-bit on the trajectory; Overlap plan \
             prices identical physics, never slower [exact-bits]";
      run = schedule_invariance;
    };
    {
      name = "platform-invariance";
      axes = [ Config.Sched_axis ];
      gens = [ water 40 ];
      doc = "4- vs 8-lane kernels agree within the single-precision \
             reassociation budget; pair counts exact [ulp-budget]";
      run = platform_invariance;
    };
    {
      name = "domain-identity";
      axes = [ Config.Platform_axis; Config.Sched_axis ];
      gens = [ water 8 ];
      doc = "trajectory bits independent of --domains [exact-bits]";
      run = domain_identity;
    };
    {
      name = "fault-recovery";
      axes = [ Config.Platform_axis; Config.Sched_axis ];
      gens = [ water 8 ];
      doc = "LDM-flip rollback/replay leaves the trajectory bit-identical to \
             an unprotected run [exact-bits]";
      run = fault_recovery_identity;
    };
    {
      name = "checkpoint-roundtrip";
      axes = [ Config.Platform_axis; Config.Sched_axis ];
      gens = [ water 8 ];
      doc = "capture -> serialize -> parse -> restart continues the \
             trajectory bit-identically [exact-bits]";
      run = checkpoint_roundtrip;
    };
    {
      name = "offload-identity";
      axes = [ Config.Platform_axis; Config.Sched_axis; Config.Domains_axis ];
      gens = [ water 24 ];
      doc = "swoffload-driven kernel matches the bare reference walk bit for \
             bit: energies, forces, pair counts, every cost accumulator \
             [exact-bits]";
      run = offload_identity;
    };
  ]

(* The harness's own canary: always fails, so the repro-line plumbing
   is provable from the test suite without breaking a real invariant.
   Not part of {!all}; reachable by name through the runner. *)
let canary =
  {
    name = "canary-always-fails";
    axes = [];
    gens = [ water 1 ];
    doc = "self-test: unconditionally failing property";
    run = (fun _ ~gen:_ ~seed -> failf "forced failure (canary, seed %d)" seed);
  }

let find name =
  if name = canary.name then Some canary
  else List.find_opt (fun p -> p.name = name) all
