(* Tests for the optimized SW kernels: every variant must reproduce the
   double-precision reference physics within mixed-precision tolerance,
   and the cost model must show the paper's qualitative behaviour. *)

open Swgmx
module Md = Mdcore
module K = Kernel_common

let cfg = Swarch.Config.default

(* a reproducible test system: water box + pair list + system snapshot *)
let setup ?(molecules = 40) ?(seed = 7) ?(elec = Md.Nonbonded.Reaction_field) () =
  let st = Md.Water.build ~molecules ~seed () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let params = { Md.Nonbonded.rcut; elec } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs = Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut () in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo
      ~ff:st.Md.Md_state.ff ~pos:st.Md.Md_state.pos
  in
  (st, sys, pairs)

(* reference forces and energies from the double-precision engine *)
let reference st sys pairs =
  Md.Md_state.clear_forces st;
  let e = Md.Energy.create () in
  let n_pairs = Md.Nonbonded.compute st sys.K.cl pairs sys.K.params e in
  (Md.Fbuf.to_array st.Md.Md_state.force, e, n_pairs)

let kernel_forces st sys outcome =
  let f = Md.Fbuf.create (3 * Md.Md_state.n_atoms st) in
  K.scatter_forces sys outcome.Kernel.result f;
  Md.Fbuf.to_array f

let max_abs arr = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 arr

(* tolerance class: ulp-budget at mixed-precision scale — the kernels
   round through single precision, so [tol] of the force scale is the
   reassociation envelope, not drift.  The swverify buffer comparator
   reports the offender population and ULP histogram on failure. *)
let check_forces_close ~tol name ref_f got_f =
  let scale = Float.max 1.0 (max_abs ref_f) in
  try
    Swverify.Buf.check_arrays ~what:name
      (Swverify.Tol.rel_abs ~rel:0.0 ~abs:(tol *. scale))
      ref_f got_f
  with Failure m -> Alcotest.fail m

let check_energy_close ~tol name a b =
  try Swverify.Tol.check ~what:name (Swverify.Tol.drift tol) a b
  with Failure m -> Alcotest.fail m

(* mixed precision: single rounding per operation, sums over thousands
   of pairs -> allow 1e-4 of the force scale *)
let tol = 2e-4

let test_variant_matches_reference variant () =
  let st, sys, pairs = setup () in
  let ref_f, ref_e, ref_pairs = reference st sys pairs in
  let cg = Swarch.Core_group.create cfg in
  let outcome = Kernel.run sys pairs cg variant in
  let f = kernel_forces st sys outcome in
  check_forces_close ~tol (Variant.name variant) ref_f f;
  check_energy_close ~tol (Variant.name variant) ref_e.Md.Energy.lj
    (K.e_lj outcome.Kernel.result);
  check_energy_close ~tol (Variant.name variant) ref_e.Md.Energy.coulomb_sr
    (K.e_coul outcome.Kernel.result);
  (* RCA counts each cross-cluster pair twice *)
  if variant <> Variant.Rca then
    Alcotest.(check int)
      (Variant.name variant ^ " pair count")
      ref_pairs outcome.Kernel.result.K.pairs_in_cutoff

let test_variant_matches_reference_ewald variant () =
  let beta = Md.Coulomb.ewald_beta ~rc:0.48 ~tolerance:1e-4 in
  let st, sys, pairs = setup ~elec:(Md.Nonbonded.Ewald_real beta) () in
  let ref_f, ref_e, _ = reference st sys pairs in
  let cg = Swarch.Core_group.create cfg in
  let outcome = Kernel.run sys pairs cg variant in
  let f = kernel_forces st sys outcome in
  check_forces_close ~tol (Variant.name variant ^ "/ewald") ref_f f;
  check_energy_close ~tol:1e-3 (Variant.name variant ^ "/ewald")
    ref_e.Md.Energy.coulomb_sr (K.e_coul outcome.Kernel.result)

(* ------------------------------------------------------------------ *)
(* Kernel_ori: the MPE loop reads the AoS package at raw offsets *)

(* The Ori pair loop written through the layout-generic Package
   accessors, with types from the topology: the same floats and the
   same operations in the kernel's visiting order, so the kernel must
   match it bit for bit.  Also returns the number of pairs visited
   (passed the exclusion mask). *)
let ori_oracle sys (pairs : Md.Pair_list.t) =
  let res = K.empty_result sys in
  let pout = K.fresh_pair_out () in
  let layout = Package.Aos and buf = sys.K.pkg_aos in
  let box = sys.K.box in
  let rcut = sys.K.params.Md.Nonbonded.rcut in
  let mi d l = d -. (l *. Float.round (d /. l)) in
  let type_of c m = sys.K.topo.Md.Topology.type_of.(Md.Cluster.atom sys.K.cl c m) in
  let visits = ref 0 in
  Md.Pair_list.iter_pairs pairs (fun ci cj ->
      let mask = K.excl_mask sys ci cj in
      let ioff = ci * Package.floats and joff = cj * Package.floats in
      for a = 0 to Md.Cluster.count sys.K.cl ci - 1 do
        for b = (if ci = cj then a + 1 else 0) to Md.Cluster.count sys.K.cl cj - 1 do
          if mask land (1 lsl ((4 * a) + b)) = 0 then begin
            incr visits;
            let d field l = mi (field ~layout buf ioff a -. field ~layout buf joff b) l in
            let dx = d Package.x box.Md.Box.lx
            and dy = d Package.y box.Md.Box.ly
            and dz = d Package.z box.Md.Box.lz in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            if r2 <= rcut *. rcut && r2 > 0.0 then begin
              pout.K.p_r2.(0) <- r2;
              pout.K.p_qq.(0) <-
                Package.charge ~layout buf ioff a *. Package.charge ~layout buf joff b;
              K.pair_interaction_into sys ~ti:(type_of ci a) ~tj:(type_of cj b) pout;
              let f = pout.K.p_f.(0) in
              res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. pout.K.p_e_lj.(0);
              res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. pout.K.p_e_coul.(0);
              res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + 1;
              let add slot dv =
                let s = 3 * slot in
                List.iteri (fun k v -> res.K.force.(s + k) <- res.K.force.(s + k) +. v) dv
              in
              add ((ci * Md.Cluster.size) + a) [ f *. dx; f *. dy; f *. dz ];
              add ((cj * Md.Cluster.size) + b) [ -.f *. dx; -.f *. dy; -.f *. dz ]
            end
          end
        done
      done);
  (res, !visits)

let same_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" what a b

let test_ori_matches_accessor_oracle elec () =
  let _, sys, pairs = setup ~molecules:60 ~seed:41 ~elec () in
  let want, _ = ori_oracle sys pairs in
  let got = Kernel_ori.run sys pairs (Swarch.Core_group.create cfg) in
  Alcotest.(check int) "pairs in cut-off" want.K.pairs_in_cutoff got.K.pairs_in_cutoff;
  same_bits "e_lj" want.K.acc.K.e_lj got.K.acc.K.e_lj;
  same_bits "e_coul" want.K.acc.K.e_coul got.K.acc.K.e_coul;
  Alcotest.(check int) "force length" (Array.length want.K.force) (Array.length got.K.force);
  Array.iteri (fun i w -> same_bits (Printf.sprintf "force.(%d)" i) w got.K.force.(i)) want.K.force

let test_ori_mpe_charges () =
  (* every visited pair pays the distance test and a scattered read;
     every in-range pair also pays the interaction (whose flop count
     depends on the electrostatics) and the force read-modify-write *)
  let beta = Md.Coulomb.ewald_beta ~rc:0.48 ~tolerance:1e-4 in
  List.iter
    (fun (name, elec) ->
      let _, sys, pairs = setup ~molecules:60 ~seed:43 ~elec () in
      let want, visits = ori_oracle sys pairs in
      let hits = float_of_int want.K.pairs_in_cutoff and visits = float_of_int visits in
      let cg = Swarch.Core_group.create cfg in
      ignore (Kernel_ori.run sys pairs cg);
      let c = cg.Swarch.Core_group.mpe.Swarch.Mpe.cost in
      Alcotest.(check (float 0.0)) (name ^ " MPE flops")
        ((visits *. K.flops_distance) +. (hits *. K.flops_interaction sys))
        c.Swarch.Cost.mpe_flops;
      Alcotest.(check (float 0.0)) (name ^ " MPE bytes")
        ((visits *. Kernel_ori.bytes_per_visit) +. (hits *. Kernel_ori.bytes_per_hit))
        c.Swarch.Cost.mpe_mem_bytes;
      Alcotest.(check (float 0.0)) (name ^ " no CPE work") 0.0
        (Swarch.Core_group.total_cost cg).Swarch.Cost.scalar_flops)
    [ ("RF", Md.Nonbonded.Reaction_field); ("Ewald", Md.Nonbonded.Ewald_real beta) ]

(* ------------------------------------------------------------------ *)
(* Package *)

let test_package_layouts_agree () =
  let st, sys, _ = setup ~molecules:10 () in
  ignore st;
  for c = 0 to sys.K.n_clusters - 1 do
    for m = 0 to Md.Cluster.size - 1 do
      let base = c * Package.floats in
      List.iter
        (fun (name, f) ->
          let a = f ~layout:Package.Aos sys.K.pkg_aos base m
          and s = f ~layout:Package.Soa sys.K.pkg_soa base m in
          if a <> s then Alcotest.failf "package %s mismatch at %d.%d" name c m)
        [ ("x", Package.x); ("y", Package.y); ("z", Package.z); ("q", Package.charge) ]
    done
  done

let test_package_padding_zero () =
  (* 10 molecules = 30 atoms = 7.5 clusters: the last cluster has pads *)
  let _, sys, _ = setup ~molecules:10 () in
  let nc = sys.K.n_clusters in
  let last = nc - 1 in
  let cnt = Md.Cluster.count sys.K.cl last in
  if cnt < Md.Cluster.size then begin
    let base = last * Package.floats in
    for m = cnt to Md.Cluster.size - 1 do
      Alcotest.(check (float 0.0)) "pad charge zero" 0.0
        (Package.charge ~layout:Package.Aos sys.K.pkg_aos base m)
    done
  end
  else Alcotest.fail "expected a padded cluster"

let test_package_bytes () =
  Alcotest.(check int) "package is 96 B" 96 Package.bytes;
  (* a cache line of 8 packages is ~the 800 B transfer of Section 3.1 *)
  Alcotest.(check int) "line is 768 B" 768 (8 * Package.bytes)

(* ------------------------------------------------------------------ *)
(* Exclusion masks *)

let test_excl_mask_symmetry () =
  let _, sys, _ = setup ~molecules:20 () in
  (* every excluded topology pair must be reflected in a mask bit *)
  let topo = sys.K.topo in
  Array.iteri
    (fun a partners ->
      Array.iter
        (fun b ->
          let sa = sys.K.cl.Md.Cluster.inv.(a) and sb = sys.K.cl.Md.Cluster.inv.(b) in
          let ca = sa / 4 and cb = sb / 4 and ma = sa mod 4 and mb = sb mod 4 in
          let mask = K.excl_mask sys (min ca cb) (max ca cb) in
          let bit = if ca <= cb then (4 * ma) + mb else (4 * mb) + ma in
          if mask land (1 lsl bit) = 0 then
            Alcotest.failf "exclusion %d-%d not masked" a b)
        partners)
    topo.Md.Topology.exclusions

(* ------------------------------------------------------------------ *)
(* Cost-model behaviour *)

let run_variant sys pairs variant =
  let cg = Swarch.Core_group.create cfg in
  Kernel.run sys pairs cg variant

let test_fig8_ordering () =
  (* larger box so cache locality resembles the benchmark *)
  let _, sys, pairs = setup ~molecules:320 ~seed:11 () in
  let t v = (run_variant sys pairs v).Kernel.elapsed in
  let t_ori = t Variant.Ori
  and t_pkg = t Variant.Pkg
  and t_cache = t Variant.Cache
  and t_vec = t Variant.Vec
  and t_mark = t Variant.Mark in
  Alcotest.(check bool) "Ori slowest" true (t_ori > t_pkg);
  Alcotest.(check bool) "caches beat Pkg" true (t_pkg > t_cache);
  Alcotest.(check bool) "vectorization beats Cache" true (t_cache > t_vec);
  Alcotest.(check bool) "marks beat Vec" true (t_vec > t_mark)

let test_read_cache_miss_ratio_low () =
  (* the paper reports <15% miss in the force kernel *)
  let _, sys, pairs = setup ~molecules:320 ~seed:13 () in
  let outcome = run_variant sys pairs Variant.Mark in
  match outcome.Kernel.stats with
  | Some { Kernel_cpe.read_stats = Some s; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "read miss %.1f%% < 15%%" (100.0 *. Swcache.Stats.miss_ratio s))
        true
        (Swcache.Stats.miss_ratio s < 0.15)
  | _ -> Alcotest.fail "expected read-cache stats"

let test_mark_reduces_dma () =
  let _, sys, pairs = setup ~molecules:160 ~seed:17 () in
  let cg1 = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg1 Variant.Rma);
  let dma_rma = (Swarch.Core_group.total_cost cg1).Swarch.Cost.dma_bytes in
  let cg2 = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg2 Variant.Mark);
  let dma_mark = (Swarch.Core_group.total_cost cg2).Swarch.Cost.dma_bytes in
  Alcotest.(check bool) "marks move fewer bytes" true (dma_mark < dma_rma)

let test_mark_stats_show_meaningless_copies () =
  (* needs a box big enough that a CPE's copy window spans whole cell
     planes it never touches — the "meaningless copies" of Section 3.3 *)
  let _, sys, pairs = setup ~molecules:500 ~seed:19 () in
  let outcome = run_variant sys pairs Variant.Mark in
  match outcome.Kernel.stats with
  | Some s ->
      Alcotest.(check bool) "some lines marked" true (s.Kernel_cpe.marked_lines > 0);
      Alcotest.(check bool) "not all lines marked" true
        (s.Kernel_cpe.marked_lines < s.Kernel_cpe.total_lines)
  | None -> Alcotest.fail "expected stats"

let test_rca_doubles_computation () =
  let _, sys, pairs = setup ~molecules:80 ~seed:23 () in
  let cg_rca = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg_rca Variant.Rca);
  let flops_rca = (Swarch.Core_group.total_cost cg_rca).Swarch.Cost.scalar_flops in
  let cg_cache = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg_cache Variant.Cache);
  let flops_cache = (Swarch.Core_group.total_cost cg_cache).Swarch.Cost.scalar_flops in
  let ratio = flops_rca /. flops_cache in
  Alcotest.(check bool)
    (Printf.sprintf "RCA ~2x flops (got %.2fx)" ratio)
    true
    (ratio > 1.7 && ratio < 2.2)

let test_ustc_loads_mpe () =
  let _, sys, pairs = setup ~molecules:80 ~seed:29 () in
  let cg = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg Variant.Ustc);
  Alcotest.(check bool) "MPE does the updates" true
    (Swarch.Mpe.time cfg cg.Swarch.Core_group.mpe > 0.0)

let test_vec_uses_simd () =
  let _, sys, pairs = setup ~molecules:80 ~seed:31 () in
  let cg = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg Variant.Vec);
  let c = Swarch.Core_group.total_cost cg in
  Alcotest.(check bool) "simd ops charged" true (c.Swarch.Cost.simd_ops > 1000.0);
  let cg2 = Swarch.Core_group.create cfg in
  ignore (Kernel.run sys pairs cg2 Variant.Cache);
  let c2 = Swarch.Core_group.total_cost cg2 in
  Alcotest.(check bool) "scalar kernel has no simd" true (c2.Swarch.Cost.simd_ops = 0.0);
  Alcotest.(check bool) "vec needs fewer scalar flops" true
    (c.Swarch.Cost.scalar_flops < c2.Swarch.Cost.scalar_flops)

let test_kernels_fit_in_ldm () =
  (* a big system must still fit the kernel working set in 64 KB *)
  let _, sys, pairs = setup ~molecules:600 ~seed:37 () in
  let cg = Swarch.Core_group.create cfg in
  (* raises Out_of_ldm on overflow *)
  ignore (Kernel.run sys pairs cg Variant.Mark);
  Array.iter
    (fun cpe ->
      Alcotest.(check bool) "high water below 64 KB" true
        (Swarch.Ldm.high_water cpe.Swarch.Cpe.ldm <= 65536))
    cg.Swarch.Core_group.cpes

let prop_all_variants_agree =
  QCheck.Test.make ~name:"kernels: all variants agree on random systems" ~count:8
    QCheck.(pair (int_range 10 40) (int_range 0 1000))
    (fun (molecules, seed) ->
      let st, sys, pairs = setup ~molecules ~seed () in
      let ref_f, _, _ = reference st sys pairs in
      let scale = Float.max 1.0 (max_abs ref_f) in
      List.for_all
        (fun v ->
          let outcome = run_variant sys pairs v in
          let f = kernel_forces st sys outcome in
          (* tolerance class: ulp-budget at mixed-precision scale *)
          Result.is_ok
            (Swverify.Buf.compare_arrays
               (Swverify.Tol.rel_abs ~rel:0.0 ~abs:(5e-4 *. scale))
               ref_f f))
        Variant.all)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_all_variants_agree ]

let variant_cases =
  List.map
    (fun v ->
      Alcotest.test_case (Variant.name v ^ " matches reference") `Quick
        (test_variant_matches_reference v))
    Variant.all

let ewald_cases =
  List.map
    (fun v ->
      Alcotest.test_case (Variant.name v ^ " matches reference (Ewald)") `Quick
        (test_variant_matches_reference_ewald v))
    [ Variant.Ori; Variant.Cache; Variant.Mark ]

let suites =
  [
    ( "swgmx.package",
      [
        Alcotest.test_case "AoS and SoA agree" `Quick test_package_layouts_agree;
        Alcotest.test_case "padding is zero" `Quick test_package_padding_zero;
        Alcotest.test_case "package size" `Quick test_package_bytes;
        Alcotest.test_case "exclusion masks complete" `Quick test_excl_mask_symmetry;
      ] );
    ("swgmx.correctness", variant_cases @ ewald_cases);
    ( "swgmx.ori",
      [
        Alcotest.test_case "bit-identical to the accessor loop" `Quick
          (test_ori_matches_accessor_oracle Md.Nonbonded.Reaction_field);
        Alcotest.test_case "bit-identical to the accessor loop (Ewald)" `Quick
          (test_ori_matches_accessor_oracle
             (Md.Nonbonded.Ewald_real (Md.Coulomb.ewald_beta ~rc:0.48 ~tolerance:1e-4)));
        Alcotest.test_case "MPE charges per visit and per hit" `Quick test_ori_mpe_charges;
      ] );
    ( "swgmx.cost_model",
      [
        Alcotest.test_case "Fig 8 ordering" `Slow test_fig8_ordering;
        Alcotest.test_case "read cache miss < 15%" `Slow test_read_cache_miss_ratio_low;
        Alcotest.test_case "marks reduce DMA traffic" `Quick test_mark_reduces_dma;
        Alcotest.test_case "meaningless copies exist" `Quick test_mark_stats_show_meaningless_copies;
        Alcotest.test_case "RCA doubles flops" `Quick test_rca_doubles_computation;
        Alcotest.test_case "USTC loads the MPE" `Quick test_ustc_loads_mpe;
        Alcotest.test_case "Vec charges SIMD ops" `Quick test_vec_uses_simd;
        Alcotest.test_case "kernels fit in LDM" `Slow test_kernels_fit_in_ldm;
      ] );
    ("swgmx.properties", qsuite);
  ]
