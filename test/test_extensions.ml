(* Tests for the extended substrate: Berendsen coupling, SHAKE,
   leapfrog, Coulomb pair gradients, the Workflow step stages and the
   Fig-13 set-up, checkpoints. *)

open Mdcore

(* tolerance class: physical-drift (Swverify.Tol.drift) — accumulated
   rounding in physics sums, |a-b| <= eps + eps*max(|a|,|b|). *)
let check_float ?(eps = 1e-9) msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift eps) a b
  with Failure m -> Alcotest.fail m

(* tolerance class: exact-bits — values copied or set, not computed
   differently *)
let check_exact msg a b =
  try Swverify.Tol.check ~what:msg Swverify.Tol.Exact_bits a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Thermostat *)

let test_berendsen_is_deterministic_contraction () =
  let st = Water.build ~molecules:16 ~seed:23 ~temp:400.0 () in
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.1 () in
  let t0 = Md_state.temperature st in
  Thermostat.apply th st ~dt:0.002;
  let t1 = Md_state.temperature st in
  Alcotest.(check bool) "moves towards target" true (t1 < t0 && t1 > 300.0)

let test_berendsen_relaxation_law () =
  (* lambda^2 = 1 + dt/tau (T0/T - 1) rescales the kinetic energy, so
     one coupling step moves T by exactly dt/tau of the gap *)
  let dt = 0.002 and tau = 0.1 in
  List.iter
    (fun temp ->
      let st = Water.build ~molecules:16 ~seed:29 ~temp () in
      let th = Thermostat.create ~t_ref:300.0 ~tau () in
      let t0 = Md_state.temperature st in
      Thermostat.apply th st ~dt;
      check_float ~eps:1e-12
        (Printf.sprintf "T after one step from %.0f K" temp)
        (t0 +. (dt /. tau *. (300.0 -. t0)))
        (Md_state.temperature st))
    [ 200.0; 300.0; 420.0 ]

let test_berendsen_lambda_clamped () =
  let th = Thermostat.create ~t_ref:300.0 ~tau:0.002 () in
  check_exact"at target" 1.0 (Thermostat.lambda th ~dt:0.002 ~temp:300.0);
  check_exact"cold system capped" 1.25 (Thermostat.lambda th ~dt:0.002 ~temp:1.0);
  check_exact"hot system floored" 0.8 (Thermostat.lambda th ~dt:0.002 ~temp:1e6);
  check_exact"no temperature, no scaling" 1.0
    (Thermostat.lambda th ~dt:0.002 ~temp:0.0)

let test_thermostat_rejects_bad_parameters () =
  List.iter
    (fun (t_ref, tau) ->
      Alcotest.(check bool)
        (Printf.sprintf "t_ref %g tau %g rejected" t_ref tau)
        true
        (try ignore (Thermostat.create ~t_ref ~tau ()); false
         with Invalid_argument _ -> true))
    [ (0.0, 0.1); (-300.0, 0.1); (300.0, 0.0); (300.0, -1.0) ]

(* ------------------------------------------------------------------ *)
(* SHAKE *)

let perturbed_water molecules seed =
  let st = Water.build ~molecules ~seed () in
  let ref_pos = Fbuf.copy st.Md_state.pos in
  let rng = Rng.create (seed + 100) in
  for i = 0 to Fbuf.length st.Md_state.pos - 1 do
    st.Md_state.pos.{i} <- st.Md_state.pos.{i} +. Rng.uniform rng (-0.008) 0.008
  done;
  (st, ref_pos)

(* mass-weighted sum of a per-atom vector buffer *)
let mass_weighted_sum (st : Md_state.t) buf =
  let mass = st.Md_state.topo.Topology.mass in
  let acc = ref Vec3.zero in
  for i = 0 to Md_state.n_atoms st - 1 do
    acc := Vec3.add !acc (Vec3.scale mass.(i) (Vec3.get buf i))
  done;
  !acc

let test_shake_preserves_com () =
  (* internal constraint forces must not move the centre of mass *)
  let st, ref_pos = perturbed_water 6 13 in
  let before = mass_weighted_sum st st.Md_state.pos in
  let shake = Constraints.create st.Md_state.topo in
  ignore (Constraints.apply shake ~ref_pos ~pos:st.Md_state.pos);
  let after = mass_weighted_sum st st.Md_state.pos in
  check_float "com x" before.Vec3.x after.Vec3.x;
  check_float "com y" before.Vec3.y after.Vec3.y;
  check_float "com z" before.Vec3.z after.Vec3.z

let test_shake_fixed_point () =
  (* an already-constrained configuration needs no correction *)
  let st = Water.build ~molecules:8 ~seed:11 () in
  let shake = Constraints.create st.Md_state.topo in
  Alcotest.(check bool) "built on the manifold" true
    (Constraints.max_violation shake st.Md_state.pos < 1e-9);
  let ref_pos = Fbuf.copy st.Md_state.pos in
  ignore (Constraints.apply shake ~ref_pos ~pos:st.Md_state.pos);
  Fbuf.iteri
    (fun i x -> check_float ~eps:1e-12 (Printf.sprintf "coord %d" i) x (Fbuf.get st.Md_state.pos i))
    ref_pos

let test_velocity_projection_preserves_momentum () =
  let st = Water.build ~molecules:6 ~seed:17 () in
  let before = mass_weighted_sum st st.Md_state.vel in
  let shake = Constraints.create st.Md_state.topo in
  Constraints.constrain_velocities shake ~pos:st.Md_state.pos ~vel:st.Md_state.vel;
  let after = mass_weighted_sum st st.Md_state.vel in
  check_float "p x" before.Vec3.x after.Vec3.x;
  check_float "p y" before.Vec3.y after.Vec3.y;
  check_float "p z" before.Vec3.z after.Vec3.z

(* ------------------------------------------------------------------ *)
(* Leapfrog *)

(* one O-H bond spring plus a free third atom, no constraints *)
let dimer ~k ~stretch =
  let topo =
    {
      (Topology.water 1) with
      Topology.bonds = [| { Topology.i = 0; j = 1; r0 = 0.2; k } |];
      constraints = [||];
    }
  in
  let st = Md_state.create topo Forcefield.spce (Box.cubic 10.0) in
  Vec3.set st.Md_state.pos 0 (Vec3.make 5.0 5.0 5.0);
  Vec3.set st.Md_state.pos 1 (Vec3.make (5.2 +. stretch) 5.03 5.0);
  Vec3.set st.Md_state.pos 2 (Vec3.make 1.0 1.0 1.0);
  st

let bond_forces (st : Md_state.t) =
  Md_state.clear_forces st;
  ignore (Bonded.compute st.Md_state.box st.Md_state.topo st.Md_state.pos st.Md_state.force)

(* v <- v + s dt f/m: a half kick for s = +-0.5 *)
let kick (st : Md_state.t) ~dt s =
  let mass = st.Md_state.topo.Topology.mass in
  Fbuf.iteri
    (fun k f ->
      st.Md_state.vel.{k} <- st.Md_state.vel.{k} +. (s *. dt *. f /. mass.(k / 3)))
    st.Md_state.force

let test_leapfrog_free_flight () =
  (* no forces: positions advance by dt v, velocities do not change *)
  let st = dimer ~k:0.0 ~stretch:0.0 in
  let rng = Rng.create 5 in
  Fbuf.iteri (fun k _ -> st.Md_state.vel.{k} <- Rng.uniform rng (-1.0) 1.0) st.Md_state.vel;
  let v0 = Fbuf.copy st.Md_state.vel in
  let x0 = Fbuf.copy st.Md_state.pos in
  let dt = 0.002 in
  Integrator.step st ~dt;
  Fbuf.iteri
    (fun k v ->
      check_exact(Printf.sprintf "vel %d" k) v (Fbuf.get st.Md_state.vel k);
      check_exact(Printf.sprintf "pos %d" k)
        (Fbuf.get x0 k +. (dt *. v))
        (Fbuf.get st.Md_state.pos k))
    v0

let test_leapfrog_time_reversible () =
  (* run forward, turn v(t+dt/2) into -v(t+dt/2) at the last position,
     run back the same number of steps: the start comes back *)
  let st = dimer ~k:5000.0 ~stretch:0.04 in
  let x0 = Fbuf.copy st.Md_state.pos in
  let dt = 0.0005 and steps = 500 in
  for _ = 1 to steps do
    bond_forces st;
    Integrator.step st ~dt
  done;
  bond_forces st;
  kick st ~dt 1.0;
  Fbuf.iteri (fun k v -> st.Md_state.vel.{k} <- -.v) st.Md_state.vel;
  for _ = 1 to steps do
    bond_forces st;
    Integrator.step st ~dt
  done;
  Fbuf.iteri
    (fun k x -> check_float ~eps:1e-10 (Printf.sprintf "pos %d" k) x (Fbuf.get st.Md_state.pos k))
    x0

let test_leapfrog_second_order () =
  (* started from rest with v(-dt/2) = -dt/2 f/m, the error at a fixed
     time shrinks fourfold when dt halves *)
  let run dt =
    let st = dimer ~k:2000.0 ~stretch:0.03 in
    bond_forces st;
    kick st ~dt (-0.5);
    let steps = int_of_float (Float.round (0.1 /. dt)) in
    for _ = 1 to steps do
      bond_forces st;
      Integrator.step st ~dt
    done;
    st.Md_state.pos
  in
  let fine = run 0.0000125 in
  let err dt =
    let p = run dt in
    let e = ref 0.0 in
    Fbuf.iteri (fun k x -> e := Float.max !e (Float.abs (x -. Fbuf.get fine k))) p;
    !e
  in
  let e1 = err 0.0004 and e2 = err 0.0002 in
  let ratio = e1 /. e2 in
  Alcotest.(check bool)
    (Printf.sprintf "error ratio %.2f in [3.5, 4.5]" ratio)
    true
    (ratio > 3.5 && ratio < 4.5)

(* ------------------------------------------------------------------ *)
(* Coulomb: every pair force is minus the gradient of its energy *)

(* [check_gradient ~what ~energy ~force_over_r] compares [|F| = r
   force_over_r] with the central difference of [energy] over r in
   [0.15, 0.95] nm.  Errors are measured against the bare Coulomb
   force ke/r^2 of a unit pair, the scale the short-range kernels work
   in. *)
let check_gradient ~what ~eps ~energy ~force_over_r =
  let h = 1e-6 in
  for i = 0 to 16 do
    let r = 0.15 +. (0.05 *. float_of_int i) in
    let e r = energy (r *. r) in
    let numeric = -.(e (r +. h) -. e (r -. h)) /. (2.0 *. h) in
    let analytic = r *. force_over_r (r *. r) in
    let scaled x = x *. r *. r /. Forcefield.ke in
    check_float ~eps (Printf.sprintf "%s at r = %.2f" what r) (scaled numeric) (scaled analytic)
  done

let test_rf_force_is_gradient () =
  let krf, crf = Coulomb.rf_constants ~rc:1.0 in
  check_gradient ~what:"reaction field" ~eps:1e-7
    ~energy:(Coulomb.rf_energy ~krf ~crf ~qq:1.0)
    ~force_over_r:(Coulomb.rf_force_over_r ~krf ~qq:1.0)

let test_ewald_real_force_is_gradient () =
  let beta = Coulomb.ewald_beta ~rc:1.0 ~tolerance:1e-5 in
  check_gradient ~what:"Ewald real space" ~eps:1e-5
    ~energy:(Coulomb.ewald_real_energy ~beta ~qq:1.0)
    ~force_over_r:(Coulomb.ewald_real_force_over_r ~beta ~qq:1.0)

let test_excluded_correction_is_gradient () =
  let beta = Coulomb.ewald_beta ~rc:1.0 ~tolerance:1e-5 in
  check_gradient ~what:"excluded correction" ~eps:1e-5
    ~energy:(Coulomb.excluded_correction_energy ~beta ~qq:1.0)
    ~force_over_r:(Coulomb.excluded_correction_force_over_r ~beta ~qq:1.0)

(* ------------------------------------------------------------------ *)
(* Workflow stages *)

let fig13_box () = Workflow.water_box ~dt:0.001 ~temp:300.0 ~molecules:20 ~seed:7

let same_bits what a b =
  Fbuf.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float (Fbuf.get b i) then
        Alcotest.failf "%s %d differs" what i)
    a

let test_step_is_its_stages () =
  (* the sequence the optimised dynamics rely on, written out *)
  let w1 = fig13_box () and w2 = fig13_box () in
  for _ = 1 to 12 do
    Workflow.step w1;
    Workflow.search_if_due w2;
    Workflow.start_forces w2;
    w2.Workflow.pairs_in_cutoff <-
      Nonbonded.compute w2.Workflow.state w2.Workflow.cluster w2.Workflow.pairs
        w2.Workflow.config.Workflow.nb w2.Workflow.energy;
    Workflow.finish_forces w2;
    Workflow.update w2
  done;
  same_bits "pos" w1.Workflow.state.Md_state.pos w2.Workflow.state.Md_state.pos;
  same_bits "vel" w1.Workflow.state.Md_state.vel w2.Workflow.state.Md_state.vel;
  Alcotest.(check int64) "total energy bits"
    (Int64.bits_of_float (Workflow.total_energy w1))
    (Int64.bits_of_float (Workflow.total_energy w2));
  Alcotest.(check int) "step count" 12 w2.Workflow.step_count

let test_start_forces_keeps_kinetic () =
  let w = fig13_box () in
  Workflow.step w;
  let e = w.Workflow.energy in
  let kinetic = e.Energy.kinetic in
  Alcotest.(check bool) "terms set by the step" true
    (kinetic > 0.0 && e.Energy.lj <> 0.0 && e.Energy.coulomb_recip <> 0.0);
  Workflow.start_forces w;
  check_exact"kinetic kept" kinetic e.Energy.kinetic;
  check_exact"potential cleared" 0.0 (Energy.potential e);
  Fbuf.iteri
    (fun i f -> check_exact(Printf.sprintf "force %d" i) 0.0 f)
    w.Workflow.state.Md_state.force

let test_pair_list_follows_nstlist () =
  let w = fig13_box () in
  let rebuilt = ref [] in
  for _ = 1 to 25 do
    let before = w.Workflow.pairs and count = w.Workflow.step_count in
    Workflow.step w;
    if w.Workflow.pairs != before then rebuilt := count :: !rebuilt
  done;
  Alcotest.(check (list int)) "searched at steps" [ 0; 10; 20 ] (List.rev !rebuilt)

let test_water_box_is_fig13_setup () =
  let w = Workflow.water_box ~dt:0.002 ~temp:310.0 ~molecules:20 ~seed:7 in
  let c = w.Workflow.config in
  let rcut = Float.min 0.9 (0.45 *. Box.min_edge w.Workflow.state.Md_state.box) in
  check_exact"dt" 0.002 c.Workflow.dt;
  Alcotest.(check int) "nstlist" 10 c.Workflow.nstlist;
  check_exact"rcut" rcut c.Workflow.nb.Nonbonded.rcut;
  check_exact"rlist = rcut" rcut c.Workflow.rlist;
  (match c.Workflow.nb.Nonbonded.elec with
  | Nonbonded.Ewald_real beta ->
      check_exact"Ewald beta" (Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5) beta
  | Nonbonded.Reaction_field -> Alcotest.fail "expected Ewald electrostatics");
  Alcotest.(check (option int)) "PME mesh" (Some 32) c.Workflow.pme_grid;
  Alcotest.(check bool) "PME built" true (Option.is_some w.Workflow.pme);
  (match c.Workflow.thermostat with
  | Some th ->
      check_exact"t_ref" 310.0 th.Thermostat.t_ref;
      check_exact"tau" 0.5 th.Thermostat.tau
  | None -> Alcotest.fail "expected a thermostat");
  Alcotest.(check int) "fresh step count" 0 w.Workflow.step_count

let test_equilibrate_needs_thermostat () =
  let w = fig13_box () in
  let st = w.Workflow.state in
  let pos = Fbuf.copy st.Md_state.pos in
  let uncoupled =
    Workflow.create ~config:{ w.Workflow.config with Workflow.thermostat = None } st
  in
  Alcotest.(check bool) "rejected" true
    (try Workflow.equilibrate uncoupled ~seed:7 ~steps:10; false
     with Invalid_argument _ -> true);
  same_bits "pos untouched" pos st.Md_state.pos

(* ------------------------------------------------------------------ *)
(* Checkpoint *)

let test_checkpoint_roundtrip_bitexact () =
  let st = Water.build ~molecules:20 ~seed:41 () in
  let n = Md_state.n_atoms st in
  let cp =
    Swio.Checkpoint.capture ~step:123 ~pos:st.Md_state.pos ~vel:st.Md_state.vel
      ~n_atoms:n ()
  in
  let s = Swio.Checkpoint.to_string cp in
  let cp2 = Swio.Checkpoint.of_string s in
  let pos = Fbuf.create (3 * n) and vel = Fbuf.create (3 * n) in
  let step = Swio.Checkpoint.restore cp2 ~pos ~vel in
  Alcotest.(check int) "step" 123 step;
  Fbuf.iteri
    (fun i x ->
      if x <> Fbuf.get st.Md_state.pos i then Alcotest.failf "pos %d not bit-exact" i)
    pos;
  Fbuf.iteri
    (fun i v ->
      if v <> Fbuf.get st.Md_state.vel i then Alcotest.failf "vel %d not bit-exact" i)
    vel

let test_checkpoint_restart_reproduces_run () =
  (* run 20 steps; checkpoint at 10; restart must match the original *)
  let mk () = Water.build ~molecules:12 ~seed:43 () in
  let config st =
    {
      Workflow.dt = 0.001;
      nstlist = 5;
      rlist = 0.45 *. Box.min_edge st.Md_state.box;
      nb =
        { Nonbonded.rcut = 0.45 *. Box.min_edge st.Md_state.box;
          elec = Nonbonded.Reaction_field };
      pme_grid = None;
      thermostat = None;
    }
  in
  let st1 = mk () in
  let w1 = Workflow.create ~config:(config st1) st1 in
  Workflow.run w1 10;
  let cp =
    Swio.Checkpoint.capture ~step:10 ~pos:st1.Md_state.pos ~vel:st1.Md_state.vel
      ~n_atoms:(Md_state.n_atoms st1) ()
  in
  Workflow.run w1 10;
  (* restart from the serialized checkpoint *)
  let st2 = mk () in
  let w2 = Workflow.create ~config:(config st2) st2 in
  let cp2 = Swio.Checkpoint.of_string (Swio.Checkpoint.to_string cp) in
  ignore (Swio.Checkpoint.restore cp2 ~pos:st2.Md_state.pos ~vel:st2.Md_state.vel);
  Workflow.run w2 10;
  Fbuf.iteri
    (fun i x ->
      check_float ~eps:1e-12 (Printf.sprintf "pos %d" i) x (Fbuf.get st2.Md_state.pos i))
    st1.Md_state.pos

let test_checkpoint_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "rejected" true
        (try ignore (Swio.Checkpoint.of_string s); false
         with Invalid_argument _ -> true))
    [ ""; "wrong magic\n1 1\n"; "swgmx-checkpoint 1\n5\n"; "swgmx-checkpoint 1\n1 2\n0.0\n" ]

let suites =
  [
    ( "ext.thermostat",
      [
        Alcotest.test_case "Berendsen contraction" `Quick test_berendsen_is_deterministic_contraction;
        Alcotest.test_case "Berendsen relaxation law" `Quick test_berendsen_relaxation_law;
        Alcotest.test_case "lambda clamped" `Quick test_berendsen_lambda_clamped;
        Alcotest.test_case "rejects bad parameters" `Quick test_thermostat_rejects_bad_parameters;
      ] );
    ( "ext.shake",
      [
        Alcotest.test_case "preserves centre of mass" `Quick test_shake_preserves_com;
        Alcotest.test_case "satisfied input is a fixed point" `Quick test_shake_fixed_point;
        Alcotest.test_case "velocity projection keeps momentum" `Quick
          test_velocity_projection_preserves_momentum;
      ] );
    ( "ext.leapfrog",
      [
        Alcotest.test_case "free flight" `Quick test_leapfrog_free_flight;
        Alcotest.test_case "time reversible" `Quick test_leapfrog_time_reversible;
        Alcotest.test_case "second order in dt" `Quick test_leapfrog_second_order;
      ] );
    ( "ext.coulomb",
      [
        Alcotest.test_case "RF force = -dE/dr" `Quick test_rf_force_is_gradient;
        Alcotest.test_case "Ewald real force = -dE/dr" `Quick test_ewald_real_force_is_gradient;
        Alcotest.test_case "excluded correction = -dE/dr" `Quick test_excluded_correction_is_gradient;
      ] );
    ( "ext.workflow",
      [
        Alcotest.test_case "step is its stages" `Quick test_step_is_its_stages;
        Alcotest.test_case "start_forces keeps kinetic" `Quick test_start_forces_keeps_kinetic;
        Alcotest.test_case "pair list follows nstlist" `Quick test_pair_list_follows_nstlist;
        Alcotest.test_case "water_box is the Fig-13 set-up" `Quick test_water_box_is_fig13_setup;
        Alcotest.test_case "equilibrate needs a thermostat" `Quick test_equilibrate_needs_thermostat;
      ] );
    ( "ext.checkpoint",
      [
        Alcotest.test_case "bit-exact roundtrip" `Quick test_checkpoint_roundtrip_bitexact;
        Alcotest.test_case "restart reproduces run" `Quick test_checkpoint_restart_reproduces_run;
        Alcotest.test_case "rejects garbage" `Quick test_checkpoint_rejects_garbage;
      ] );
  ]
