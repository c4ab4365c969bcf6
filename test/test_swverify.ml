(* Tests for the swverify comparison/fuzzing harness: the ULP machinery
   and tolerance classes against the IEEE edge cases, generator spec
   round-trips, the repro-line plumbing (proved with a forced failure),
   and the quick property matrix that guards the whole stack. *)

open Swverify

(* ------------------------------------------------------------------ *)
(* ULP distance: the ordinal map and its edge cases *)

let test_ulp_adjacent () =
  Alcotest.(check (option int64))
    "1.0 to next_up 1.0 is 1 ulp" (Some 1L)
    (Ulp.dist 1.0 (Ulp.next_up 1.0));
  Alcotest.(check (option int64))
    "x to x is 0" (Some 0L) (Ulp.dist 42.5 42.5);
  Alcotest.(check (option int64))
    "next_down inverts next_up" (Some 0L)
    (Ulp.dist 1.0 (Ulp.next_down (Ulp.next_up 1.0)))

let test_ulp_zero_signs () =
  (* +0.0 and -0.0 share ordinal 0: distinct bits, zero distance *)
  Alcotest.(check (option int64)) "+0 to -0" (Some 0L) (Ulp.dist 0.0 (-0.0));
  Alcotest.(check (option int64))
    "smallest denormal is 1 ulp from zero" (Some 1L)
    (Ulp.dist 0.0 (Int64.float_of_bits 1L));
  Alcotest.(check (option int64))
    "-denormal to +denormal spans 2" (Some 2L)
    (Ulp.dist (-.Int64.float_of_bits 1L) (Int64.float_of_bits 1L))

let test_ulp_infinity () =
  Alcotest.(check (option int64))
    "infinity is 1 past max_float" (Some 1L)
    (Ulp.dist Float.max_float Float.infinity);
  Alcotest.(check (option int64))
    "opposite-sign max_floats saturate" (Some Int64.max_int)
    (Ulp.dist (-.Float.max_float) Float.max_float)

let test_ulp_nan () =
  Alcotest.(check (option int64)) "NaN has no distance" None (Ulp.dist Float.nan 1.0);
  Alcotest.(check int64) "dist_exn maps NaN to max_int" Int64.max_int
    (Ulp.dist_exn 1.0 Float.nan);
  Alcotest.(check bool) "within rejects NaN" false (Ulp.within 1000 Float.nan 0.0)

let test_ulp_denormal_pred () =
  Alcotest.(check bool) "min_float is normal" false (Ulp.is_denormal Float.min_float);
  Alcotest.(check bool) "below min_float is denormal" true
    (Ulp.is_denormal (Ulp.next_down Float.min_float));
  Alcotest.(check bool) "zero is not denormal" false (Ulp.is_denormal 0.0);
  Alcotest.(check bool) "NaN is not denormal" false (Ulp.is_denormal Float.nan)

(* ------------------------------------------------------------------ *)
(* Tolerance classes *)

let test_tol_exact () =
  Alcotest.(check bool) "same bits pass" true (Tol.close Tol.exact 1.5 1.5);
  Alcotest.(check bool) "+0 vs -0 are different bits" false
    (Tol.close Tol.exact 0.0 (-0.0));
  Alcotest.(check bool) "same-bits NaN passes exact" true
    (Tol.close Tol.exact Float.nan Float.nan);
  Alcotest.(check bool) "1 ulp apart fails exact" false
    (Tol.close Tol.exact 1.0 (Ulp.next_up 1.0))

let test_tol_ulps () =
  Alcotest.(check bool) "2 ulps within budget 2" true
    (Tol.close (Tol.ulps 2) 1.0 (Ulp.next_up (Ulp.next_up 1.0)));
  Alcotest.(check bool) "3 ulps outside budget 2" false
    (Tol.close (Tol.ulps 2) 1.0 (Ulp.next_up (Ulp.next_up (Ulp.next_up 1.0))));
  Alcotest.(check bool) "+0 vs -0 within 0 ulps" true
    (Tol.close (Tol.ulps 0) 0.0 (-0.0))

let test_tol_rel_abs () =
  let t = Tol.rel_abs ~rel:1e-6 ~abs:1e-9 in
  Alcotest.(check bool) "within rel" true (Tol.close t 1000.0 1000.0005);
  Alcotest.(check bool) "outside rel" false (Tol.close t 1000.0 1000.5);
  Alcotest.(check bool) "abs floor near zero" true (Tol.close t 0.0 5e-10);
  Alcotest.(check bool) "NaN always fails" false (Tol.close t Float.nan Float.nan);
  (* equal infinities pass (a = b before subtraction), mismatched fail *)
  Alcotest.(check bool) "inf = inf passes" true
    (Tol.close t Float.infinity Float.infinity);
  Alcotest.(check bool) "inf vs -inf fails" false
    (Tol.close t Float.infinity Float.neg_infinity);
  Alcotest.(check bool) "inf vs finite fails" false (Tol.close t Float.infinity 1.0)

let test_tol_check_raises () =
  match Tol.check ~what:"unit" (Tol.ulps 1) 1.0 2.0 with
  | () -> Alcotest.fail "check passed a 2^52-ulp miscompare"
  | exception Failure msg ->
      Alcotest.(check bool) "message carries the label" true
        (String.length msg > 0
        && String.sub msg 0 4 = "unit")

(* ------------------------------------------------------------------ *)
(* Buffer comparison: offender report *)

let test_buf_report () =
  let a = [| 1.0; 2.0; 3.0; 0.0 |] in
  let b = [| 1.0; 2.5; 3.0; 0.0 |] in
  match Buf.compare_arrays (Tol.drift 1e-9) a b with
  | Ok _ -> Alcotest.fail "miscompare not detected"
  | Error r ->
      Alcotest.(check int) "one failure" 1 r.Buf.failures;
      Alcotest.(check int) "worst index" 1 r.Buf.worst_index;
      Alcotest.(check int) "exact elements counted" 3 r.Buf.hist.(0);
      Alcotest.(check bool) "report renders" true
        (String.length (Buf.report_to_string r) > 0)

let test_buf_exact_pass () =
  let a = [| 1.0; -0.0; Float.max_float |] in
  match Buf.compare_arrays Tol.exact a (Array.copy a) with
  | Ok r -> Alcotest.(check int) "all exact" 3 r.Buf.hist.(0)
  | Error _ -> Alcotest.fail "identical arrays failed exact"

(* ------------------------------------------------------------------ *)
(* Generator specs: round-trip and determinism *)

let test_gen_roundtrip () =
  List.iter
    (fun spec ->
      let s = Gen.to_string spec in
      match Gen.of_string s with
      | Ok spec' -> Alcotest.(check string) s s (Gen.to_string spec')
      | Error e -> Alcotest.failf "%s did not parse back: %s" s e)
    [
      Gen.Water { molecules = 8 };
      Gen.Sweep { molecules = 4; charge_scale = 1.25; lj_scale = 0.5 };
      Gen.Overlap { molecules = 4; dist = 1e-6 };
      Gen.Boundary { molecules = 8 };
      Gen.Denormal_vel { molecules = 4 };
    ];
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Gen.of_string "water:-3"));
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Gen.of_string "nonsense"))

let test_gen_deterministic () =
  let spec = Gen.Water { molecules = 6 } in
  let a = Gen.build spec ~seed:11 and b = Gen.build spec ~seed:11 in
  (try
     Buf.check_fbuf ~what:"same seed, same positions" Tol.exact
       a.Mdcore.Md_state.pos b.Mdcore.Md_state.pos;
     Buf.check_fbuf ~what:"same seed, same velocities" Tol.exact
       a.Mdcore.Md_state.vel b.Mdcore.Md_state.vel
   with Failure m -> Alcotest.fail m);
  let c = Gen.build spec ~seed:12 in
  Alcotest.(check bool) "different seed, different state" true
    (Result.is_error
       (Buf.compare_fbuf Tol.exact a.Mdcore.Md_state.pos c.Mdcore.Md_state.pos))

let test_gen_denormal_builds () =
  let st = Gen.build (Gen.Denormal_vel { molecules = 4 }) ~seed:3 in
  let has_denormal = ref false in
  Mdcore.Fbuf.iteri
    (fun _ v -> if Ulp.is_denormal v then has_denormal := true)
    st.Mdcore.Md_state.vel;
  Alcotest.(check bool) "velocities contain denormals" true !has_denormal

(* ------------------------------------------------------------------ *)
(* Repro lines: parse, forced failure, replay *)

let test_repro_roundtrip () =
  let c =
    {
      Runner.prop = "zero-net-force";
      gen = Gen.Sweep { molecules = 12; charge_scale = 1.5; lj_scale = 0.25 };
      seed = 99;
      cfg = { Config.platform = "sw26010_pro"; sched = Config.Pipelined; domains = 2 };
    }
  in
  let line = Runner.repro_line c in
  match Runner.parse_repro line with
  | Ok c' -> Alcotest.(check string) "round-trips" line (Runner.repro_line c')
  | Error e -> Alcotest.failf "repro line %S did not parse: %s" line e

let test_repro_rejects_junk () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" line)
        true
        (Result.is_error (Runner.parse_repro line)))
    [
      "";
      "prop=x gen=water:1 seed=1 platform=p schedule=serial domains=1";
      "SWVERIFY-REPRO prop=x gen=bogus seed=1 platform=p schedule=serial domains=1";
      "SWVERIFY-REPRO prop=x gen=water:1 seed=nope platform=p schedule=serial domains=1";
      "SWVERIFY-REPRO prop=x gen=water:1 seed=1 platform=p schedule=weird domains=1";
      "SWVERIFY-REPRO prop=x gen=water:1 seed=1 platform=p schedule=serial domains=0";
    ]

(* the forced failure required by the harness contract: the canary
   property fails, its repro line is printable+parseable, and replaying
   the line reproduces the identical failure *)
let test_forced_failure_replays () =
  let c =
    {
      Runner.prop = Props.canary.Props.name;
      gen = Gen.Water { molecules = 1 };
      seed = 13;
      cfg = Config.default;
    }
  in
  match Runner.run_case c with
  | Ok () -> Alcotest.fail "canary property unexpectedly held"
  | Error first -> (
      let line = Runner.repro_line c in
      (match Runner.parse_repro line with
      | Ok c' -> Alcotest.(check string) "line parses back" line (Runner.repro_line c')
      | Error e -> Alcotest.failf "canary repro line did not parse: %s" e);
      match Runner.replay line with
      | Error second ->
          Alcotest.(check string) "replay reproduces the failure" first second
      | Ok () -> Alcotest.fail "replayed canary unexpectedly held")

let test_unknown_prop_fails () =
  Alcotest.(check bool) "unknown property is a failure, not a pass" true
    (Result.is_error
       (Runner.replay
          "SWVERIFY-REPRO prop=no-such-prop gen=water:1 seed=1 \
           platform=sw26010 schedule=serial domains=1"))

(* ------------------------------------------------------------------ *)
(* The quick matrix itself: every case is its own alcotest case, named
   by its repro line, so a failure in CI prints the replay coordinate
   as the test name.  Coverage asserted below. *)

let test_matrix_coverage () =
  let cases = Runner.quick_cases () in
  let distinct f = List.sort_uniq compare (List.map f cases) in
  Alcotest.(check bool)
    ">= 8 properties" true
    (List.length (distinct (fun c -> c.Runner.prop)) >= 8);
  Alcotest.(check bool)
    ">= 2 platforms" true
    (List.length (distinct (fun c -> c.Runner.cfg.Config.platform)) >= 2);
  Alcotest.(check bool)
    ">= 2 schedules" true
    (List.length (distinct (fun c -> c.Runner.cfg.Config.sched)) >= 2);
  Alcotest.(check bool)
    ">= 2 domain counts" true
    (List.length (distinct (fun c -> c.Runner.cfg.Config.domains)) >= 2)

let fuzz_cases =
  List.map
    (fun c ->
      Alcotest.test_case (Runner.repro_line c) `Slow (fun () ->
          match Runner.run_case c with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s\n  %s" (Runner.repro_line c) msg))
    (Runner.quick_cases ())

(* Regression cases: the nightly seeds on which the earlier statement
   of thermostat-convergence failed.  It assumed the thermalised box
   starts 200 K above t_ref, but SHAKE removes much of that gap in the
   first step and the minimised box keeps heating itself; the property
   now bounds the coupled run by the uncoupled one.  Named by repro
   line, like the quick matrix. *)
let thermostat_regressions =
  List.map
    (fun seed ->
      let c =
        {
          Runner.prop = "thermostat-convergence";
          gen = Gen.Water { molecules = 32 };
          seed;
          cfg = Config.default;
        }
      in
      Alcotest.test_case (Runner.repro_line c) `Quick (fun () ->
          match Runner.run_case c with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s\n  %s" (Runner.repro_line c) msg))
    [ 1016; 2025; 3034; 6061; 8079; 9088 ]

let suites =
  [
    ( "swverify-ulp",
      [
        Alcotest.test_case "adjacent floats" `Quick test_ulp_adjacent;
        Alcotest.test_case "signed zeros" `Quick test_ulp_zero_signs;
        Alcotest.test_case "infinity" `Quick test_ulp_infinity;
        Alcotest.test_case "NaN" `Quick test_ulp_nan;
        Alcotest.test_case "denormal predicate" `Quick test_ulp_denormal_pred;
      ] );
    ( "swverify-tol",
      [
        Alcotest.test_case "exact-bits" `Quick test_tol_exact;
        Alcotest.test_case "ulp-budget" `Quick test_tol_ulps;
        Alcotest.test_case "physical-drift" `Quick test_tol_rel_abs;
        Alcotest.test_case "check raises with label" `Quick test_tol_check_raises;
        Alcotest.test_case "buffer offender report" `Quick test_buf_report;
        Alcotest.test_case "buffer exact pass" `Quick test_buf_exact_pass;
      ] );
    ( "swverify-gen",
      [
        Alcotest.test_case "spec round-trip" `Quick test_gen_roundtrip;
        Alcotest.test_case "seed determinism" `Quick test_gen_deterministic;
        Alcotest.test_case "denormal generator" `Quick test_gen_denormal_builds;
      ] );
    ( "swverify-repro",
      [
        Alcotest.test_case "line round-trip" `Quick test_repro_roundtrip;
        Alcotest.test_case "junk rejected" `Quick test_repro_rejects_junk;
        Alcotest.test_case "forced failure replays" `Quick test_forced_failure_replays;
        Alcotest.test_case "unknown property fails" `Quick test_unknown_prop_fails;
        Alcotest.test_case "matrix coverage" `Quick test_matrix_coverage;
      ] );
    ("swverify-fuzz", fuzz_cases);
    ("swverify-regress", thermostat_regressions);
  ]
