(* Tests for the platform abstraction: platform validation, the
   registry and custom-file loading, the second built-in backend end
   to end through the kernels, and the platform stamp in
   checkpoints. *)

open Swarch
module Md = Mdcore
module K = Swgmx.Kernel_common

(* tolerance class: physical-drift (Swverify.Tol.drift) at 1e-12, via
   the audited swverify comparator *)
let check_float msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift 1e-12) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Platform.validate *)

let test_validate_rejects_zero_lanes () =
  let bad = { Platform.default with Platform.simd_lanes = 0 } in
  Alcotest.check_raises "zero lanes"
    (Invalid_argument "Platform: simd_lanes must be positive") (fun () ->
      Platform.validate bad)

let test_validate_rejects_empty_dma_curve () =
  let bad = { Platform.default with Platform.dma_points = [||] } in
  Alcotest.check_raises "empty curve"
    (Invalid_argument "Platform: dma_points must be non-empty") (fun () ->
      Platform.validate bad)

let test_validate_rejects_non_monotone_curve () =
  let bad =
    {
      Platform.default with
      Platform.dma_points = [| (8, 1e9); (256, 2e9); (128, 3e9) |];
    }
  in
  Alcotest.check_raises "unsorted sizes"
    (Invalid_argument "Platform: dma_points must be size-sorted") (fun () ->
      Platform.validate bad)

let test_builtins_valid () =
  List.iter Platform.validate Platform.builtin;
  Alcotest.(check bool) "default is sw26010" true
    (Platform.default == Platform.sw26010)

(* ------------------------------------------------------------------ *)
(* registry and custom loader *)

let test_registry_finds_builtins () =
  Alcotest.(check bool) "sw26010" true
    (Platform.find "sw26010" = Some Platform.sw26010);
  Alcotest.(check bool) "sw26010_pro" true
    (Platform.find "sw26010_pro" = Some Platform.sw26010_pro);
  Alcotest.(check bool) "unknown" true (Platform.find "cray-1" = None);
  Alcotest.(check bool) "names lists both" true
    (List.mem "sw26010" (Platform.names ())
    && List.mem "sw26010_pro" (Platform.names ()))

let test_resolve_unknown_fails () =
  match Platform.resolve "no-such-platform" with
  | _ -> Alcotest.fail "resolved a nonexistent platform"
  | exception Invalid_argument _ -> ()

let test_custom_of_string () =
  let p =
    Platform.of_string
      "base = sw26010\nname = tuned\n# doubled LDM\nldm_kb = 128\nsimd_lanes \
       = 8\n"
  in
  Alcotest.(check string) "name" "tuned" p.Platform.name;
  Alcotest.(check int) "ldm" (128 * 1024) p.Platform.ldm_bytes;
  Alcotest.(check int) "lanes" 8 p.Platform.simd_lanes;
  Alcotest.(check int) "inherited cpes" Platform.sw26010.Platform.cpe_count
    p.Platform.cpe_count

let test_custom_dma_curve_and_errors () =
  let p =
    Platform.of_string "base = sw26010\ndma_curve = 8:1e9, 128:2e9, 512:4e9\n"
  in
  Alcotest.(check int) "curve points" 3 (Array.length p.Platform.dma_points);
  check_float "curve bw" 2e9 (snd p.Platform.dma_points.(1));
  (match Platform.of_string "base = sw26010\nwarp_drive = 9\n" with
  | _ -> Alcotest.fail "unknown field accepted"
  | exception Invalid_argument _ -> ());
  match Platform.of_string "base = atari2600\n" with
  | _ -> Alcotest.fail "unknown base accepted"
  | exception Invalid_argument _ -> ()

let test_register_validates () =
  (match
     Platform.register { Platform.sw26010 with Platform.simd_lanes = -1 }
   with
  | () -> Alcotest.fail "invalid platform registered"
  | exception Invalid_argument _ -> ());
  let p = { Platform.sw26010_pro with Platform.name = "sw26010_pro_tweaked" } in
  Platform.register p;
  Alcotest.(check bool) "registered found" true
    (Platform.find "sw26010_pro_tweaked" = Some p)

(* ------------------------------------------------------------------ *)
(* the second backend end to end: kernels on the SW26010-Pro must
   still reproduce the double-precision reference physics, with the
   8-lane vector path and the bigger LDM geometry *)

let setup cfg =
  let st = Md.Water.build ~molecules:40 ~seed:7 () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Reaction_field } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs = Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut () in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
      ~pos:st.Md.Md_state.pos
  in
  (st, sys, pairs)

let test_pro_variant_matches_reference variant () =
  let cfg = Platform.sw26010_pro in
  let st, sys, pairs = setup cfg in
  Md.Md_state.clear_forces st;
  let e = Md.Energy.create () in
  ignore (Md.Nonbonded.compute st sys.K.cl pairs sys.K.params e);
  let ref_f = Md.Fbuf.to_array st.Md.Md_state.force in
  let cg = Core_group.create cfg in
  let outcome = Swgmx.Kernel.run sys pairs cg variant in
  let fb = Md.Fbuf.create (3 * Md.Md_state.n_atoms st) in
  K.scatter_forces sys outcome.Swgmx.Kernel.result fb;
  let f = Md.Fbuf.to_array fb in
  let scale =
    Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 ref_f
  in
  (* tolerance class: ulp-budget at mixed-precision force scale *)
  try
    Swverify.Buf.check_arrays
      ~what:(Swgmx.Variant.name variant ^ "/pro forces")
      (Swverify.Tol.rel_abs ~rel:0.0 ~abs:(2e-4 *. scale))
      ref_f f
  with Failure m -> Alcotest.fail m

let test_pro_geometry_follows_ldm () =
  let base = Platform.sw26010 and pro = Platform.sw26010_pro in
  Alcotest.(check int) "read lines x4" (4 * K.read_lines base)
    (K.read_lines pro);
  Alcotest.(check int) "write lines x4" (4 * K.write_lines base)
    (K.write_lines pro)

(* the vector kernels fold 4 or 8 lanes; any other width is a
   configuration error raised before a CPE runs, not a CPE fault *)
let test_vector_kernel_rejects_bad_lane_count () =
  List.iter
    (fun lanes ->
      let cfg = { Platform.sw26010 with Platform.simd_lanes = lanes } in
      let _, sys, pairs = setup cfg in
      let cg = Core_group.create cfg in
      match Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Vec with
      | _ -> Alcotest.failf "%d-lane vector kernel accepted" lanes
      | exception Invalid_argument _ -> ())
    [ 6; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* platform stamp in checkpoints *)

let test_checkpoint_records_platform () =
  let n = 2 in
  let pos = Md.Fbuf.init (3 * n) float_of_int in
  let vel = Md.Fbuf.init (3 * n) float_of_int in
  let ck =
    Swio.Checkpoint.capture ~platform:"sw26010_pro" ~step:0 ~pos ~vel
      ~n_atoms:n ()
  in
  let ck2 = Swio.Checkpoint.of_string (Swio.Checkpoint.to_string ck) in
  Alcotest.(check string) "platform survives round-trip" "sw26010_pro"
    ck2.Swio.Checkpoint.platform;
  (* a version-1 file has no platform line and matches anything *)
  let v1 =
    "swgmx-checkpoint 1\n0 1\n"
    ^ String.concat "" (List.init 6 (fun _ -> "0x1p0\n"))
  in
  Alcotest.(check string) "v1 parses with unknown platform" ""
    (Swio.Checkpoint.of_string v1).Swio.Checkpoint.platform

let test_restart_rejects_platform_mismatch () =
  let molecules = 8 and seed = 3 and steps = 6 in
  let _, st, _ =
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~checkpoint_every:2
      ~sample_every:2 ()
  in
  let n = Md.Md_state.n_atoms st in
  let ck =
    Swio.Checkpoint.capture ~platform:"sw26010_pro" ~step:2
      ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel ~n_atoms:n ()
  in
  match
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~restart:ck
      ~sample_every:2 ()
  with
  | _ -> Alcotest.fail "platform-mismatched restart accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names both platforms" true
        (let has s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has msg "sw26010_pro" && has msg "sw26010")

let test_restart_accepts_matching_platform () =
  let molecules = 8 and seed = 3 and steps = 6 in
  let ck = ref None in
  let _ =
    Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~checkpoint_every:2
      ~on_checkpoint:(fun c -> ck := Some c)
      ~sample_every:2 ()
  in
  match !ck with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some ck ->
      Alcotest.(check string) "stamped with active platform"
        Platform.default.Platform.name ck.Swio.Checkpoint.platform;
      if ck.Swio.Checkpoint.step >= steps then ()
      else
        ignore
          (Swgmx.Engine.simulate_protected ~molecules ~seed ~steps ~restart:ck
             ~sample_every:2 ())

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "platform.registry",
      [
        Alcotest.test_case "rejects zero lanes" `Quick
          test_validate_rejects_zero_lanes;
        Alcotest.test_case "rejects empty DMA curve" `Quick
          test_validate_rejects_empty_dma_curve;
        Alcotest.test_case "rejects non-monotone curve" `Quick
          test_validate_rejects_non_monotone_curve;
        Alcotest.test_case "builtins valid" `Quick test_builtins_valid;
        Alcotest.test_case "registry finds builtins" `Quick
          test_registry_finds_builtins;
        Alcotest.test_case "resolve unknown fails" `Quick
          test_resolve_unknown_fails;
        Alcotest.test_case "custom file inherits base" `Quick
          test_custom_of_string;
        Alcotest.test_case "custom curve + bad fields" `Quick
          test_custom_dma_curve_and_errors;
        Alcotest.test_case "register validates" `Quick test_register_validates;
      ] );
    ( "platform.pro",
      [
        Alcotest.test_case "Vec matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Vec);
        Alcotest.test_case "Mark matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Mark);
        Alcotest.test_case "Cache matches reference" `Quick
          (test_pro_variant_matches_reference Swgmx.Variant.Cache);
        Alcotest.test_case "geometry follows LDM" `Quick
          test_pro_geometry_follows_ldm;
        Alcotest.test_case "rejects non-multiple lanes" `Quick
          test_vector_kernel_rejects_bad_lane_count;
      ] );
    ( "platform.checkpoint",
      [
        Alcotest.test_case "records platform" `Quick
          test_checkpoint_records_platform;
        Alcotest.test_case "restart rejects mismatch" `Quick
          test_restart_rejects_platform_mismatch;
        Alcotest.test_case "restart accepts match" `Quick
          test_restart_accepts_matching_platform;
      ] );
  ]
