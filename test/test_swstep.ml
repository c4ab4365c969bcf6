(* Tests for the swstep phase graph: graph validation, plan
   invariants, and golden serial values pinning the refactored engine
   to the pre-swstep step times. *)

module P = Swstep.Phase
module Pl = Swstep.Plan
module E = Swgmx.Engine

let cfg = Swarch.Config.default

(* ------------------------------------------------------------------ *)
(* Phase graph validation *)

let chip name ?deps () =
  P.v ?deps ~row:"r" name (P.Mpe_analytic (P.per_atom ~flops:1.0 ~bytes:8.0 100))

let test_validate_duplicate () =
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Swstep: duplicate phase \"a\"") (fun () ->
      ignore (P.make ~label:"t" ~rows:[ "r" ] [ chip "a" (); chip "a" () ]))

let test_validate_unknown_dep () =
  Alcotest.check_raises "unknown dep"
    (Invalid_argument "Swstep: phase \"a\" depends on unknown \"ghost\"")
    (fun () ->
      ignore (P.make ~label:"t" ~rows:[ "r" ] [ chip "a" ~deps:[ "ghost" ] () ]))

let test_validate_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Swstep: dependency cycle")
    (fun () ->
      ignore
        (P.make ~label:"t" ~rows:[ "r" ]
           [ chip "a" ~deps:[ "b" ] (); chip "b" ~deps:[ "a" ] () ]))

let test_validate_unlisted_row () =
  Alcotest.check_raises "unlisted row"
    (Invalid_argument "Swstep: phase \"a\" has unlisted row \"r\"") (fun () ->
      ignore (P.make ~label:"t" ~rows:[ "other" ] [ chip "a" () ]))

let test_amortized_interval_positive () =
  let step =
    P.make ~label:"t" ~rows:[ "r" ]
      [ P.v ~row:"r" "a" (P.Amortized (0, chip "inner" ())) ]
  in
  let cg = Swarch.Core_group.create cfg in
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Swstep: Amortized interval must be positive") (fun () ->
      ignore (Pl.run ~cfg ~cg ~t0:0.0 step))

(* ------------------------------------------------------------------ *)
(* Plan invariants on the real engine graph *)

let sum_rows m = List.fold_left (fun a (_, t) -> a +. t) 0.0 (E.rows m)

let test_rows_sum_serial () =
  let m = E.measure ~version:E.V_list ~total_atoms:24000 ~n_cg:8 () in
  Alcotest.(check bool) "rows sum to makespan" true
    (Float.abs (sum_rows m -. m.E.step_time) <= 1e-12 *. m.E.step_time)

let test_rows_sum_overlap () =
  let m =
    E.measure ~plan:Pl.Overlap ~version:E.V_list ~total_atoms:24000 ~n_cg:8 ()
  in
  Alcotest.(check bool) "overlap rows sum to makespan" true
    (Float.abs (sum_rows m -. m.E.step_time) <= 1e-12 *. m.E.step_time)

let test_overlap_bounds () =
  let serial = E.measure ~version:E.V_other ~total_atoms:24000 ~n_cg:16 () in
  let overlap =
    E.measure ~plan:Pl.Overlap ~version:E.V_other ~total_atoms:24000 ~n_cg:16 ()
  in
  Alcotest.(check bool) "overlap <= serial" true
    (overlap.E.step_time <= serial.E.step_time +. 1e-15);
  Alcotest.(check bool) "overlap >= critical path" true
    (overlap.E.step_time >= overlap.E.step.Pl.critical_path -. 1e-15);
  Alcotest.(check bool) "serial sum is an upper bound of critical path" true
    (serial.E.step_time >= serial.E.step.Pl.critical_path -. 1e-15)

let test_overlap_hides_rdma_comm () =
  (* the acceptance ablation: with RDMA, overlapping shrinks the
     exposed "Wait + comm. F" row and hides communication *)
  let serial = E.measure ~version:E.V_other ~total_atoms:24000 ~n_cg:16 () in
  let overlap =
    E.measure ~plan:Pl.Overlap ~version:E.V_other ~total_atoms:24000 ~n_cg:16 ()
  in
  let wait m = E.row m "Wait + comm. F" in
  Alcotest.(check bool) "serial wait positive" true (wait serial > 0.0);
  Alcotest.(check bool) "overlap shrinks wait" true
    (wait overlap < wait serial);
  Alcotest.(check bool) "comm hidden behind compute" true
    (overlap.E.step.Pl.comm_hidden > 0.0);
  Alcotest.(check bool) "hidden + exposed = comm total" true
    (Float.abs
       (overlap.E.step.Pl.comm_hidden
       +. (overlap.E.step.Pl.comm_total -. overlap.E.step.Pl.comm_hidden)
       -. overlap.E.step.Pl.comm_total)
    <= 1e-15)

let test_single_cg_plans_agree () =
  (* no communication: both plans must price the step identically *)
  let serial = E.measure ~version:E.V_cal ~total_atoms:6000 ~n_cg:1 () in
  let overlap =
    E.measure ~plan:Pl.Overlap ~version:E.V_cal ~total_atoms:6000 ~n_cg:1 ()
  in
  Alcotest.(check bool) "same step time" true
    (Float.abs (serial.E.step_time -. overlap.E.step_time)
    <= 1e-12 *. serial.E.step_time)

(* ------------------------------------------------------------------ *)
(* Golden serial values: the refactored engine must reproduce the
   pre-swstep step times (captured from the monolithic Engine.measure
   before the phase-graph rewrite) on the Table-1 workloads. *)

(* tolerance class: physical-drift — golden step times, rel 1e-9 with
   a 1e-15 floor for exactly-zero phase rows *)
let close expected got =
  Swverify.Tol.close (Swverify.Tol.rel_abs ~rel:1e-9 ~abs:1e-15) expected got

let check_golden name m expected_rows expected_total =
  List.iter
    (fun (label, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %.17g vs %.17g" name label (E.row m label)
           expected)
        true
        (close expected (E.row m label)))
    expected_rows;
  Alcotest.(check bool)
    (Printf.sprintf "%s: total %.17g vs %.17g" name m.E.step_time
       expected_total)
    true
    (close expected_total m.E.step_time)

let test_golden_ori_6000_1 () =
  let m = E.measure ~version:E.V_ori ~total_atoms:6000 ~n_cg:1 () in
  check_golden "Ori 6000/1" m
    [
      ("Domain decomp.", 0.0);
      ("Neighbor search", 0.0036584807172413787);
      ("Force", 0.078715224980697079);
      ("Wait + comm. F", 0.0);
      ("NB X/F buffer ops", 2.213793103448276e-05);
      ("Update", 7.2620689655172413e-05);
      ("Constraints", 0.00025189655172413794);
      ("Comm. energies", 0.0);
      ("Write traj.", 7.3559999999999994e-05);
      ("Rest", 8.0689655172413785e-06);
    ]
    0.082801989835869491;
  Alcotest.(check int) "atoms" 6000 m.E.atoms_per_cg

let test_golden_other_96000_16 () =
  let m = E.measure ~version:E.V_other ~total_atoms:96000 ~n_cg:16 () in
  check_golden "Other 96000/16" m
    [
      ("Domain decomp.", 1.5999999999999999e-06);
      ("Neighbor search", 0.0011996088751399119);
      ("Force", 0.0017985596413929439);
      ("Wait + comm. F", 0.00030613949999999993);
      ("NB X/F buffer ops", 4.8537197936464834e-06);
      ("Update", 1.4755124898180831e-05);
      ("Constraints", 1.8276540863426555e-05);
      ("Comm. energies", 9.5209617062643294e-05);
      ("Write traj.", 6.0399999999999998e-06);
      ("Rest", 8.0689655172413785e-06);
    ]
    0.0034531119846679943;
  Alcotest.(check int) "per-CG atoms" 6000 m.E.atoms_per_cg;
  Alcotest.(check int) "global atoms" 96000 m.E.global_atoms

let test_golden_list_96000_16 () =
  let m = E.measure ~version:E.V_list ~total_atoms:96000 ~n_cg:16 () in
  check_golden "List 96000/16" m
    [
      ("Domain decomp.", 6.8000000000000001e-06);
      ("Neighbor search", 0.0011996088751399119);
      ("Force", 0.0017985596413929439);
      ("Wait + comm. F", 0.00096341850000000002);
      ("NB X/F buffer ops", 4.8537197936464834e-06);
      ("Update", 7.2620689655172413e-05);
      ("Constraints", 0.00025189655172413794);
      ("Comm. energies", 0.00063134110598704629);
      ("Write traj.", 7.3559999999999994e-05);
      ("Rest", 8.0689655172413785e-06);
    ]
    0.0050107280492101012

(* ------------------------------------------------------------------ *)
(* Satellites: atom rounding and config validation at the boundary *)

let test_atoms_rounded_not_truncated () =
  (* 350 atoms over 3 CGs: truncation gave 116 per CG (348 global);
     round-to-nearest gives 117 (351 global) *)
  let m = E.measure ~version:E.V_cal ~total_atoms:350 ~n_cg:3 () in
  Alcotest.(check int) "per-CG atoms rounded" 117 m.E.atoms_per_cg;
  Alcotest.(check int) "modelled global count" 351 m.E.global_atoms

let test_measure_rejects_bad_config () =
  let bad =
    {
      Swarch.Config.default with
      Swarch.Config.dma_points = [| (512, 28.98e9); (8, 0.99e9) |];
    }
  in
  Alcotest.check_raises "unsorted dma curve rejected"
    (Invalid_argument "Platform: dma_points must be size-sorted") (fun () ->
      ignore (E.measure ~cfg:bad ~version:E.V_ori ~total_atoms:600 ~n_cg:1 ()))

let test_validate_self_dependency () =
  Alcotest.check_raises "self dependency"
    (Invalid_argument "Swstep: phase \"a\" depends on itself") (fun () ->
      ignore (P.make ~label:"t" ~rows:[ "r" ] [ chip "a" ~deps:[ "a" ] () ]))

let test_validate_comm_outside_sync () =
  (* the sync window is the on-chip time communication waits on: a
     comm phase, or an amortized one, cannot be part of it *)
  let request =
    {
      Swcomm.Step_comm.net = Swcomm.Network.of_platform cfg;
      transport = Swcomm.Network.Mpi;
      total_atoms = 3000;
      ranks = 4;
      rcut = 1.0;
      box_edge = 6.0;
      pme_grid = 32;
      compute_time = 0.0;
      faults = None;
    }
  in
  let comm = P.Comm { request; part = P.Halo } in
  Alcotest.(check bool) "comm runs on the network" true
    (P.resource_of comm = P.Net);
  Alcotest.(check bool) "amortized comm stays on the network" true
    (P.resource_of (P.Amortized (10, P.v ~row:"r" "inner" comm)) = P.Net);
  Alcotest.(check bool) "amortized chip work stays on the chip" true
    (P.resource_of (P.Amortized (10, chip "inner" ())) = P.Chip);
  Alcotest.check_raises "comm in the sync window"
    (Invalid_argument "Swstep: comm phase \"halo\" cannot be in the sync window")
    (fun () ->
      ignore
        (P.make ~label:"t" ~rows:[ "r" ] [ P.v ~sync:true ~row:"r" "halo" comm ]));
  (* the same phase outside the window is fine *)
  ignore (P.make ~label:"t" ~rows:[ "r" ] [ P.v ~row:"r" "halo" comm ])

let test_analytic_pricing () =
  (* closed-form paths: the MPE at its scalar issue rate plus cache
     traffic, the CPEs striped over the mesh plus DMA at plateau *)
  let w = P.add_work (P.per_atom ~flops:10.0 ~bytes:4.0 1000) P.no_work in
  Alcotest.(check (float 0.0)) "flops" 10_000.0 w.P.flops;
  Alcotest.(check (float 0.0)) "bytes" 4_000.0 w.P.bytes;
  let w2 = P.add_work w w in
  Alcotest.(check (float 0.0)) "added flops" 20_000.0 w2.P.flops;
  Alcotest.(check (float 0.0)) "added bytes" 8_000.0 w2.P.bytes;
  let c = cfg in
  Alcotest.(check (float 1e-18)) "MPE time"
    ((10_000.0 /. c.Swarch.Config.mpe_flops_per_cycle
     /. c.Swarch.Config.mpe_freq_hz)
    +. (4_000.0 /. c.Swarch.Config.mpe_mem_bw))
    (P.mpe_time c w);
  Alcotest.(check (float 1e-18)) "CPE time"
    ((10_000.0 /. float_of_int c.Swarch.Config.cpe_count
     /. c.Swarch.Config.cpe_freq_hz)
    +. (4_000.0 /. Swarch.Config.peak_dma_bw c))
    (P.cpe_time c w);
  Alcotest.(check bool) "the mesh beats the MPE on streamed work" true
    (P.cpe_time c w < P.mpe_time c w);
  Alcotest.(check (float 0.0)) "no work is free" 0.0
    (P.mpe_time c P.no_work +. P.cpe_time c P.no_work)

let suites =
  [
    ( "swstep.validate",
      [
        Alcotest.test_case "duplicate phase name" `Quick test_validate_duplicate;
        Alcotest.test_case "unknown dependency" `Quick test_validate_unknown_dep;
        Alcotest.test_case "dependency cycle" `Quick test_validate_cycle;
        Alcotest.test_case "unlisted row" `Quick test_validate_unlisted_row;
        Alcotest.test_case "amortized interval" `Quick
          test_amortized_interval_positive;
        Alcotest.test_case "self dependency" `Quick
          test_validate_self_dependency;
        Alcotest.test_case "comm outside the sync window" `Quick
          test_validate_comm_outside_sync;
        Alcotest.test_case "analytic pricing" `Quick test_analytic_pricing;
      ] );
    ( "swstep.plan",
      [
        Alcotest.test_case "serial rows sum to makespan" `Quick
          test_rows_sum_serial;
        Alcotest.test_case "overlap rows sum to makespan" `Quick
          test_rows_sum_overlap;
        Alcotest.test_case "overlap bracketed by bounds" `Slow
          test_overlap_bounds;
        Alcotest.test_case "overlap hides RDMA comm" `Slow
          test_overlap_hides_rdma_comm;
        Alcotest.test_case "single CG: plans agree" `Quick
          test_single_cg_plans_agree;
      ] );
    ( "swstep.golden",
      [
        Alcotest.test_case "Ori 6000 atoms, 1 CG" `Quick test_golden_ori_6000_1;
        Alcotest.test_case "Other 96000 atoms, 16 CGs" `Quick
          test_golden_other_96000_16;
        Alcotest.test_case "List 96000 atoms, 16 CGs" `Quick
          test_golden_list_96000_16;
      ] );
    ( "swstep.boundary",
      [
        Alcotest.test_case "atom count rounded" `Quick
          test_atoms_rounded_not_truncated;
        Alcotest.test_case "bad config rejected" `Quick
          test_measure_rejects_bad_config;
      ] );
  ]
