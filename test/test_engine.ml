(* Tests for CPE pair-list generation and the full-step engine. *)

open Swgmx
module Md = Mdcore
module K = Kernel_common

let cfg = Swarch.Config.default

let setup ?(molecules = 120) ?(seed = 3) () =
  let st = Md.Water.build ~molecules ~seed () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
      ~pos:st.Md.Md_state.pos
  in
  (st, sys, rcut)

(* ------------------------------------------------------------------ *)
(* Nsearch_cpe *)

let test_nsearch_matches_reference () =
  let st, sys, rcut = setup () in
  let reference =
    Md.Pair_list.build st.Md.Md_state.box sys.K.cl ~pos:st.Md.Md_state.pos
      ~rlist:rcut ()
  in
  let cg = Swarch.Core_group.create cfg in
  let pl, _ = Nsearch_cpe.run sys cg ~kind:Nsearch_cpe.Two_way ~rlist:rcut in
  Alcotest.(check int) "same pair count" (Md.Pair_list.n_pairs reference)
    (Md.Pair_list.n_pairs pl);
  Alcotest.(check bool) "same ranges" true (reference.Md.Pair_list.ranges = pl.Md.Pair_list.ranges);
  Alcotest.(check bool) "same neighbours" true (reference.Md.Pair_list.cj = pl.Md.Pair_list.cj)

let test_nsearch_direct_also_correct () =
  let st, sys, rcut = setup ~seed:11 () in
  let reference =
    Md.Pair_list.build st.Md.Md_state.box sys.K.cl ~pos:st.Md.Md_state.pos
      ~rlist:rcut ()
  in
  let cg = Swarch.Core_group.create cfg in
  let pl, _ = Nsearch_cpe.run sys cg ~kind:Nsearch_cpe.Direct_mapped ~rlist:rcut in
  Alcotest.(check bool) "identical list" true (reference.Md.Pair_list.cj = pl.Md.Pair_list.cj)

let test_nsearch_two_way_fixes_thrashing () =
  (* Section 3.5: direct-mapped thrashes (>85% misses in the paper),
     two-way associativity brings the miss ratio down to ~10% *)
  let _, sys, rcut = setup ~molecules:400 ~seed:13 () in
  let cg1 = Swarch.Core_group.create cfg in
  let _, s_direct = Nsearch_cpe.run sys cg1 ~kind:Nsearch_cpe.Direct_mapped ~rlist:rcut in
  let cg2 = Swarch.Core_group.create cfg in
  let _, s_two = Nsearch_cpe.run sys cg2 ~kind:Nsearch_cpe.Two_way ~rlist:rcut in
  Alcotest.(check bool)
    (Printf.sprintf "direct %.0f%% >> two-way %.0f%%"
       (100.0 *. s_direct.Nsearch_cpe.miss_ratio)
       (100.0 *. s_two.Nsearch_cpe.miss_ratio))
    true
    (s_direct.Nsearch_cpe.miss_ratio > 2.0 *. s_two.Nsearch_cpe.miss_ratio);
  Alcotest.(check bool) "two-way reasonably low" true
    (s_two.Nsearch_cpe.miss_ratio < 0.4)

let test_nsearch_two_way_faster () =
  let _, sys, rcut = setup ~molecules:400 ~seed:17 () in
  let cg1 = Swarch.Core_group.create cfg in
  ignore (Nsearch_cpe.run sys cg1 ~kind:Nsearch_cpe.Direct_mapped ~rlist:rcut);
  let t_direct = Swarch.Core_group.elapsed cg1 in
  let cg2 = Swarch.Core_group.create cfg in
  ignore (Nsearch_cpe.run sys cg2 ~kind:Nsearch_cpe.Two_way ~rlist:rcut);
  let t_two = Swarch.Core_group.elapsed cg2 in
  Alcotest.(check bool) "two-way faster" true (t_two < t_direct)

(* ------------------------------------------------------------------ *)
(* Pme_model *)

let test_pme_model_scales () =
  let t1 = Pme_model.mpe_time cfg ~n_atoms:1000 ~grid:32 in
  let t2 = Pme_model.mpe_time cfg ~n_atoms:10000 ~grid:32 in
  Alcotest.(check bool) "more atoms, more time" true (t2 > t1);
  let c1 = Pme_model.cpe_time cfg ~n_atoms:10000 ~grid:32 in
  Alcotest.(check bool) "CPE port much faster" true (t2 /. c1 > 10.0)

let test_pme_grid_for_spacing () =
  Alcotest.(check int) "5 nm box at 0.12 nm spacing" 42 (Swcomm.Scaling.grid_for 5.0);
  Alcotest.(check int) "small boxes keep 16 points" 16 (Swcomm.Scaling.grid_for 1.0)

(* ------------------------------------------------------------------ *)
(* Engine.measure *)

let test_fig10_case1_ordering () =
  let t v =
    (Engine.measure ~version:v ~total_atoms:6000 ~n_cg:1 ()).Engine.step_time
  in
  let ori = t Engine.V_ori
  and cal = t Engine.V_cal
  and lst = t Engine.V_list
  and oth = t Engine.V_other in
  Alcotest.(check bool) "Cal improves" true (cal < ori /. 4.0);
  Alcotest.(check bool) "List improves" true (lst < cal);
  Alcotest.(check bool) "Other improves" true (oth < lst)

let test_fig10_case2_comm_matters () =
  (* multi-CG: communication appears and RDMA in V_other removes most *)
  let m_list = Engine.measure ~version:Engine.V_list ~total_atoms:96000 ~n_cg:16 () in
  let m_other = Engine.measure ~version:Engine.V_other ~total_atoms:96000 ~n_cg:16 () in
  Alcotest.(check bool) "comm energies present under MPI" true
    (Engine.row m_list "Comm. energies" > 0.0);
  Alcotest.(check bool) "RDMA shrinks comm energies" true
    (Engine.row m_other "Comm. energies" < Engine.row m_list "Comm. energies")

let test_table1_force_dominates_ori () =
  let m = Engine.measure ~version:Engine.V_ori ~total_atoms:6000 ~n_cg:1 () in
  let share = Engine.row m "Force" /. m.Engine.step_time in
  Alcotest.(check bool)
    (Printf.sprintf "force share %.0f%% > 85%%" (100.0 *. share))
    true (share > 0.85)

let test_measurement_total_consistent () =
  let m = Engine.measure ~version:Engine.V_cal ~total_atoms:6000 ~n_cg:4 () in
  let s = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 (Engine.rows m) in
  Alcotest.(check bool) "rows sum to total" true
    (Float.abs (s -. m.Engine.step_time) < 1e-12)

(* The amortized Table 1 rows: one neighbour search per
   [Engine.nstlist] steps (Table 3's cadence, from Workflow) and one
   trajectory frame per [Engine.steps_per_frame] steps. *)

let test_nsearch_row_per_nstlist () =
  Alcotest.(check int) "Table 3's nstlist"
    Md.Workflow.default_config.Md.Workflow.nstlist Engine.nstlist;
  let m = Engine.measure ~version:Engine.V_list ~total_atoms:600 ~n_cg:1 () in
  (* the per-CG system [measure] prices: seed-2019 water, Ewald real
     space, cut-off clipped to the box *)
  let st = Md.Water.build ~molecules:(m.Engine.atoms_per_cg / 3) ~seed:2019 () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
      ~pos:st.Md.Md_state.pos
  in
  let cg = Swarch.Core_group.create cfg in
  ignore (Nsearch_cpe.run sys cg ~kind:Nsearch_cpe.Two_way ~rlist:rcut);
  Alcotest.(check (float 0.0)) "one CPE search over nstlist steps"
    (Swarch.Core_group.elapsed cg /. float_of_int Engine.nstlist)
    (Engine.row m "Neighbor search")

let test_write_traj_row_per_frame () =
  (* Io_model prices the Trajectory path type: V_list writes through
     fprintf, V_other through the fast formatter and 20 MB buffer *)
  List.iter
    (fun (version, path) ->
      let m = Engine.measure ~version ~total_atoms:600 ~n_cg:1 () in
      Alcotest.(check (float 0.0))
        (Engine.version_name version ^ " one frame over steps_per_frame")
        (Swio.Io_model.frame_time ~path ~n_atoms:m.Engine.atoms_per_cg
        /. float_of_int Engine.steps_per_frame)
        (Engine.row m "Write traj."))
    [ (Engine.V_list, Swio.Trajectory.Standard); (Engine.V_other, Swio.Trajectory.Fast) ]

(* Golden cache counters on the 3k-atom Table-3 system at sw26010: the
   CPE pair search through the direct-mapped and the two-way read
   cache, and the Cache kernel's read cache.  Every hit, miss,
   eviction, tag-math and DMA charge of the software caches shows up
   in these bits. *)

let test_cache_counter_goldens () =
  let saved = Swbench.Common.cfg () in
  Swbench.Common.set_platform Swarch.Platform.sw26010;
  Fun.protect ~finally:(fun () -> Swbench.Common.set_platform saved)
  @@ fun () ->
  let p = Swbench.Common.prepare ~particles:3000 () in
  let sys = p.Swbench.Common.sys in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (kind, name, miss, cand, acc, int_ops, dma_bytes, dma_time) ->
      let cg = Swarch.Core_group.create Swarch.Platform.sw26010 in
      let _, s = Nsearch_cpe.run sys cg ~kind ~rlist:p.Swbench.Common.rcut in
      let c = Swarch.Core_group.total_cost cg in
      Alcotest.(check int64) (name ^ " miss_ratio bits") miss (bits s.Nsearch_cpe.miss_ratio);
      Alcotest.(check int) (name ^ " candidates") cand s.Nsearch_cpe.candidates;
      Alcotest.(check int) (name ^ " accepted") acc s.Nsearch_cpe.accepted;
      Alcotest.(check int64) (name ^ " int_ops bits") int_ops (bits c.Swarch.Cost.int_ops);
      Alcotest.(check int64) (name ^ " dma_bytes bits") dma_bytes (bits c.Swarch.Cost.dma_bytes);
      Alcotest.(check int64) (name ^ " dma_time_s bits") dma_time (bits c.Swarch.Cost.dma_time_s))
    [
      (Nsearch_cpe.Direct_mapped, "direct-mapped", 4607171447264754984L, 281625, 79347,
        4702099134457315328L, 4727051941769641984L, 4572247574524515024L);
      (Nsearch_cpe.Two_way, "two-way", 4600760541254770194L, 281625, 79347,
        4703310315234787328L, 4721030810742816768L, 4566493735333362221L);
    ];
  let o = Swbench.Common.kernel_outcome p Variant.Cache in
  match o.Kernel.stats with
  | Some { Kernel_cpe.read_stats = Some r; _ } ->
      Alcotest.(check int) "Cache kernel read hits" 73208 r.Swcache.Stats.hits;
      Alcotest.(check int) "Cache kernel read misses" 6139 r.Swcache.Stats.misses;
      Alcotest.(check int) "Cache kernel read evictions" 4364 r.Swcache.Stats.evictions
  | _ -> Alcotest.fail "the Cache kernel reports no read-cache statistics"

(* ------------------------------------------------------------------ *)
(* Engine.simulate (the Fig 13 machinery, shortened) *)

let test_simulate_tracks_reference () =
  (* a short run: optimized-kernel dynamics must stay close to the
     double-precision workflow in energy and temperature *)
  let molecules = 24 and steps = 40 in
  let samples =
    Engine.simulate ~molecules ~seed:42 ~steps ~sample_every:10 ()
  in
  Alcotest.(check int) "sample count" 4 (List.length samples);
  List.iter
    (fun s ->
      Alcotest.(check bool) "energy finite" true (Float.is_finite s.Engine.total_energy);
      Alcotest.(check bool)
        (Printf.sprintf "temperature %g sane" s.Engine.temperature)
        true
        (s.Engine.temperature > 50.0 && s.Engine.temperature < 1000.0))
    samples

let test_simulate_deterministic () =
  let run () = Engine.simulate ~molecules:16 ~seed:9 ~steps:10 ~sample_every:5 () in
  let a = run () and b = run () in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 0.0)) "same energy" x.Engine.total_energy y.Engine.total_energy)
    a b

let suites =
  [
    ( "swgmx.nsearch",
      [
        Alcotest.test_case "two-way matches reference list" `Quick test_nsearch_matches_reference;
        Alcotest.test_case "direct-mapped also correct" `Quick test_nsearch_direct_also_correct;
        Alcotest.test_case "two-way fixes thrashing" `Slow test_nsearch_two_way_fixes_thrashing;
        Alcotest.test_case "two-way faster" `Slow test_nsearch_two_way_faster;
      ] );
    ( "swgmx.pme_model",
      [
        Alcotest.test_case "scales with atoms" `Quick test_pme_model_scales;
        Alcotest.test_case "grid from spacing" `Quick test_pme_grid_for_spacing;
      ] );
    ( "swgmx.engine",
      [
        Alcotest.test_case "Fig 10 ordering (case 1)" `Slow test_fig10_case1_ordering;
        Alcotest.test_case "Fig 10 comm effects (case 2)" `Slow test_fig10_case2_comm_matters;
        Alcotest.test_case "Table 1: force dominates Ori" `Quick test_table1_force_dominates_ori;
        Alcotest.test_case "rows sum to step time" `Quick test_measurement_total_consistent;
        Alcotest.test_case "simulate stays physical" `Slow test_simulate_tracks_reference;
        Alcotest.test_case "simulate deterministic" `Quick test_simulate_deterministic;
        Alcotest.test_case "Neighbor search: one pass per nstlist" `Quick
          test_nsearch_row_per_nstlist;
        Alcotest.test_case "Write traj.: one frame per steps_per_frame" `Quick
          test_write_traj_row_per_frame;
        Alcotest.test_case "cache counter goldens (3k, sw26010)" `Quick
          test_cache_counter_goldens;
      ] );
  ]
