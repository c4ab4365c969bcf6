(* Tests for the benchmark harness: registry completeness, rendering,
   and quick-mode data sanity for the experiment modules. *)

open Swbench

(* substring test without extra libraries *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_covers_paper () =
  (* every table and figure of the evaluation section must be present *)
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "table1"; "table2"; "table3"; "table4"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "fig13" ]

let test_registry_ids_unique () =
  let ids = Registry.ids () in
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_unknown () =
  Alcotest.(check bool) "unknown id" true (Registry.find "fig99" = None)

(* ------------------------------------------------------------------ *)
(* Table_render *)

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_table_renders_cells () =
  let out =
    render (fun ppf ->
        Table_render.table ppf ~headers:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ])
  in
  Alcotest.(check bool) "has cell" true
    (String.length out > 0 && contains ~needle:"333" out)

let test_table_rejects_ragged () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       render (fun ppf ->
           Table_render.table ppf ~headers:[ "a"; "b" ] [ [ "only one" ] ])
       |> ignore;
       false
     with Invalid_argument _ -> true)

let test_bar_chart_scales () =
  let out =
    render (fun ppf ->
        Table_render.bar_chart ppf ~title:"t" [ ("x", 1.0); ("y", 2.0) ])
  in
  (* the larger bar must be longer *)
  let count_hashes line =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line
  in
  let lines = String.split_on_char '\n' out in
  let bar name = List.find_opt (fun l -> contains ~needle:name l) lines in
  match (bar "x", bar "y") with
  | Some lx, Some ly ->
      Alcotest.(check bool) "y longer than x" true (count_hashes ly > count_hashes lx)
  | _ -> Alcotest.fail "bars missing"

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_cases () =
  Alcotest.(check int) "case1" 48000 Workload.case1.Workload.particles;
  Alcotest.(check int) "case1 single CG" 1 Workload.case1.Workload.n_cg;
  Alcotest.(check int) "case2" 3072000 Workload.case2.Workload.particles;
  Alcotest.(check int) "case2 512 CGs" 512 Workload.case2.Workload.n_cg

let test_workload_shrink () =
  let s = Workload.shrink ~quick:true Workload.case1 in
  Alcotest.(check int) "divided by 8" 6000 s.Workload.particles;
  let f = Workload.shrink ~quick:false Workload.case1 in
  Alcotest.(check int) "full untouched" 48000 f.Workload.particles

(* ------------------------------------------------------------------ *)
(* Experiment data (tiny smoke runs) *)

let test_fig9_data_ordering () =
  (* even at tiny sizes the strategy ordering must hold *)
  let bars = Exp_fig9.data ~quick:true () in
  let get v =
    (List.find (fun b -> b.Exp_fig9.variant = v) bars).Exp_fig9.speedup
  in
  Alcotest.(check bool) "MARK beats RMA" true
    (get Swgmx.Variant.Mark > get Swgmx.Variant.Rma);
  Alcotest.(check bool) "RMA beats USTC" true
    (get Swgmx.Variant.Rma > get Swgmx.Variant.Ustc)

let test_fig12_data_shape () =
  let c = Exp_fig12.data ~quick:true () in
  Alcotest.(check int) "8 strong points" 8 (List.length c.Exp_fig12.strong);
  let eff_first = (List.hd c.Exp_fig12.strong).Swcomm.Scaling.efficiency in
  let eff_last =
    (List.nth c.Exp_fig12.strong 7).Swcomm.Scaling.efficiency
  in
  Alcotest.(check (float 1e-9)) "baseline 1" 1.0 eff_first;
  Alcotest.(check bool) "declines" true (eff_last < eff_first);
  List.iter
    (fun (p : Swcomm.Scaling.point) ->
      Alcotest.(check bool) "weak stays high" true (p.Swcomm.Scaling.efficiency > 0.6))
    c.Exp_fig12.weak

let test_fig11_data_shape () =
  let groups = Exp_fig11.data ~quick:true () in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  List.iter
    (fun (g : Exp_fig11.group) ->
      Alcotest.(check (float 0.0)) "MPE baseline" 1.0 g.Exp_fig11.mpe_bar;
      Alcotest.(check bool) "CPE beats MPE" true (g.Exp_fig11.cpe_bar > 1.0);
      Alcotest.(check bool) "device beats MPE" true (g.Exp_fig11.device_bar > 1.0))
    groups;
  (* the paper's key qualitative point: the CPE port crushes KNL but
     is comparable to a P100 *)
  let knl = List.find (fun g -> g.Exp_fig11.device = "KNL") groups in
  Alcotest.(check bool) "CPE >> KNL" true
    (knl.Exp_fig11.cpe_bar > 4.0 *. knl.Exp_fig11.device_bar)

let test_ablation_read_line_sweep () =
  let sweep = Ablations.read_line_sweep ~quick:true () in
  (* longer lines must reduce the miss ratio on the kernel stream *)
  let m1 = match sweep with (1, m, _) :: _ -> m | _ -> Alcotest.fail "no data" in
  let m8 =
    match List.find_opt (fun (l, _, _) -> l = 8) sweep with
    | Some (_, m, _) -> m
    | None -> Alcotest.fail "no 8-line point"
  in
  Alcotest.(check bool) "8-package lines miss less" true (m8 < m1)

let test_ablation_package_sweep () =
  let sweep = Ablations.package_sweep ~quick:true () in
  let t label = List.assoc label sweep in
  Alcotest.(check bool) "aggregation wins" true
    (t "particle package (96 B)" < t "per-field (8 B x 20)");
  Alcotest.(check bool) "line fetch wins more" true
    (t "cache line (768 B / 8)" < t "particle package (96 B)")

let test_ablation_gld_loses () =
  let dma_t, gld_t = Ablations.gld_vs_dma ~quick:true () in
  Alcotest.(check bool) "gld is much slower" true (gld_t > 10.0 *. dma_t)

(* ------------------------------------------------------------------ *)
(* The measure memo *)

let test_measure_memo_keyed_by_faults () =
  (* the in-process memo must not hit across fault plans *)
  let healthy =
    Swbench.Common.measure ~version:Swgmx.Engine.V_other ~total_atoms:600
      ~n_cg:2 ()
  in
  let inj =
    Swfault.Injector.create ~seed:3
      (Swfault.Plan.of_string "cpe_slow=0:4.0,cpe_slow=1:4.0")
  in
  let degraded =
    Swbench.Common.measure ~faults:inj ~version:Swgmx.Engine.V_other
      ~total_atoms:600 ~n_cg:2 ()
  in
  Alcotest.(check bool) "fault plan changes the measurement" true
    (healthy.Swgmx.Engine.step_time <> degraded.Swgmx.Engine.step_time)

(* The memo key is (platform, version, plan, atoms, n_cg, fault plan,
   domain count): a repeat of the same key is served the stored
   record, and a change in any one component is a separate entry. *)

module Common = Swbench.Common
module Engine = Swgmx.Engine

let sw26010 = Swarch.Platform.sw26010
let bits = Int64.bits_of_float

let memo ?(cfg = sw26010) ?plan ?faults ?(version = Engine.V_other)
    ?(total_atoms = 600) ?(n_cg = 2) () =
  Common.measure ~cfg ?plan ?faults ~version ~total_atoms ~n_cg ()

let with_domains d f =
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set 1) f

let distinct what (a : Engine.measurement) (b : Engine.measurement) =
  Alcotest.(check bool) (what ^ ": separate entries") false (a == b)

let test_memo_serves_repeats () =
  let a = memo ~total_atoms:750 () in
  Alcotest.(check bool) "repeat returns the stored record" true
    (a == memo ~total_atoms:750 ())

let test_memo_matches_engine () =
  (* a memo entry is exactly what Engine.measure computes *)
  let m = memo ~total_atoms:900 () in
  let e =
    Engine.measure ~cfg:sw26010 ~plan:Swstep.Plan.Serial
      ~version:Engine.V_other ~total_atoms:900 ~n_cg:2 ()
  in
  Alcotest.(check int64) "step time" (bits e.Engine.step_time)
    (bits m.Engine.step_time);
  Alcotest.(check (list (pair string int64))) "Table 1 rows"
    (List.map (fun (r, t) -> (r, bits t)) (Engine.rows e))
    (List.map (fun (r, t) -> (r, bits t)) (Engine.rows m));
  Alcotest.(check int) "atoms per CG" e.Engine.atoms_per_cg
    m.Engine.atoms_per_cg

let test_memo_keyed_by_platform () =
  let a = memo () and b = memo ~cfg:Swarch.Platform.sw26010_pro () in
  distinct "sw26010 vs sw26010_pro" a b;
  Alcotest.(check bool) "the platforms price differently" true
    (a.Engine.step_time <> b.Engine.step_time);
  Alcotest.(check bool) "each platform's repeat hits" true
    (memo () == a && memo ~cfg:Swarch.Platform.sw26010_pro () == b)

let test_memo_keyed_by_version () =
  let cal = memo ~version:Engine.V_cal ()
  and other = memo ~version:Engine.V_other () in
  distinct "Cal vs Other" cal other;
  Alcotest.(check bool) "Other is faster than Cal" true
    (other.Engine.step_time < cal.Engine.step_time)

let test_memo_keyed_by_plan () =
  let serial = memo ~plan:Swstep.Plan.Serial ()
  and overlap = memo ~plan:Swstep.Plan.Overlap () in
  distinct "Serial vs Overlap" serial overlap;
  Alcotest.(check bool) "overlap never slower" true
    (overlap.Engine.step_time <= serial.Engine.step_time)

let test_memo_keyed_by_size () =
  let ms =
    [ memo (); memo ~total_atoms:1200 (); memo ~n_cg:4 ();
      memo ~total_atoms:1200 ~n_cg:4 () ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b -> if i < j then distinct (Printf.sprintf "%d vs %d" i j) a b)
        ms)
    ms;
  (* each entry simulates the size of its own key: per-CG rounding
     moves the global count by less than one water molecule per CG *)
  List.iter2
    (fun (m : Engine.measurement) (atoms, n_cg) ->
      Alcotest.(check int)
        (Printf.sprintf "%d atoms on %d CGs: global = per-CG x CGs" atoms n_cg)
        (m.Engine.atoms_per_cg * n_cg) m.Engine.global_atoms;
      Alcotest.(check bool)
        (Printf.sprintf "%d atoms on %d CGs: rounding" atoms n_cg)
        true
        (abs (m.Engine.global_atoms - atoms) < 3 * n_cg))
    ms
    [ (600, 2); (1200, 2); (600, 4); (1200, 4) ]

let test_memo_keyed_by_domains () =
  (* results are bit-identical across domain counts, but the memo still
     keeps them apart, so a determinism regression cannot hide behind
     a hit *)
  let one = memo ~total_atoms:660 () in
  let two = with_domains 2 (fun () -> memo ~total_atoms:660 ()) in
  distinct "1 vs 2 domains" one two;
  Alcotest.(check int64) "same step time" (bits one.Engine.step_time)
    (bits two.Engine.step_time);
  Alcotest.(check string) "exec key" "d2"
    (with_domains 2 Common.exec_key);
  Alcotest.(check string) "serial exec key" "d1" (Common.exec_key ())

let test_memo_fault_key () =
  let inj seed =
    Swfault.Injector.create ~seed
      (Swfault.Plan.of_string "cpe_slow=0:4.0,cpe_slow=1:4.0")
  in
  Alcotest.(check string) "healthy" "-" (Common.faults_key None);
  Alcotest.(check string) "plan and seed"
    (Swfault.Plan.to_string (Swfault.Injector.plan (inj 3)) ^ "#3")
    (Common.faults_key (Some (inj 3)));
  Alcotest.(check bool) "the seed is part of the key" true
    (Common.faults_key (Some (inj 3)) <> Common.faults_key (Some (inj 4)));
  (* a fresh injector with the same plan and seed is the same key *)
  let a = memo ~faults:(inj 3) ~total_atoms:630 () in
  Alcotest.(check bool) "same plan and seed hit" true
    (a == memo ~faults:(inj 3) ~total_atoms:630 ())

let suites =
  [
    ( "swbench.registry",
      [
        Alcotest.test_case "covers all tables+figures" `Quick test_registry_covers_paper;
        Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
        Alcotest.test_case "unknown id" `Quick test_registry_unknown;
      ] );
    ( "swbench.render",
      [
        Alcotest.test_case "table renders" `Quick test_table_renders_cells;
        Alcotest.test_case "ragged rejected" `Quick test_table_rejects_ragged;
        Alcotest.test_case "bars scale" `Quick test_bar_chart_scales;
      ] );
    ( "swbench.workload",
      [
        Alcotest.test_case "paper cases" `Quick test_workload_cases;
        Alcotest.test_case "quick shrink" `Quick test_workload_shrink;
      ] );
    ( "swbench.data",
      [
        Alcotest.test_case "fig9 ordering" `Slow test_fig9_data_ordering;
        Alcotest.test_case "fig12 shape" `Slow test_fig12_data_shape;
        Alcotest.test_case "fig11 shape" `Slow test_fig11_data_shape;
        Alcotest.test_case "ablation: line length" `Slow test_ablation_read_line_sweep;
        Alcotest.test_case "ablation: aggregation" `Slow test_ablation_package_sweep;
        Alcotest.test_case "ablation: gld vs dma" `Quick test_ablation_gld_loses;
      ] );
    ( "swbench.memo",
      [
        Alcotest.test_case "memo keyed by faults" `Quick
          test_measure_memo_keyed_by_faults;
        Alcotest.test_case "repeat served from the memo" `Quick
          test_memo_serves_repeats;
        Alcotest.test_case "entry equals Engine.measure" `Quick
          test_memo_matches_engine;
        Alcotest.test_case "memo keyed by platform" `Quick
          test_memo_keyed_by_platform;
        Alcotest.test_case "memo keyed by version" `Quick
          test_memo_keyed_by_version;
        Alcotest.test_case "memo keyed by plan" `Quick test_memo_keyed_by_plan;
        Alcotest.test_case "memo keyed by atoms and CGs" `Quick
          test_memo_keyed_by_size;
        Alcotest.test_case "memo keyed by domain count" `Quick
          test_memo_keyed_by_domains;
        Alcotest.test_case "fault key: plan and seed" `Quick
          test_memo_fault_key;
      ] );
  ]
