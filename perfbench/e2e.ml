(* End-to-end host-time benchmark.

   One workload per process: `e2e.exe --workload NAME --seed N --seconds S
   --trace 0|1` sets the workload up three times, then runs its op in a
   closed loop (one client, no think time) for S seconds at --domains 1,
   checks every op's outputs, and prints a table followed by one JSON
   line.  With --trace 0 the line carries the end-to-end metrics; with
   --trace 1 each op is followed by its mirror, and the line carries the
   per-layer metrics.  Without --workload, every workload runs in a child
   process of its own (fresh heap, own peak memory) for --runs seeds.

   `e2e.exe compare A.json B.json` judges two such sets against the
   bounds in BENCHMARK.json; `e2e.exe pin` rewrites the goldens. *)

module W = Workloads
module L = Layers
module J = Swtrace.Json

let default_seed = 2019
let setup_reps = 3
let golden_dir = Filename.concat "perfbench" "golden"
let out_dir = Filename.concat "perfbench" "out"

(* ------------------------------------------------------------------ *)
(* statistics *)

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4), the default exclusive method *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then
    let x = if ld = 1 then a.(0) else Float.nan in
    (x, x, x)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* the highest listed percentile with at least ten ops beyond it *)
let tail xs =
  let n = List.length xs in
  let a = Array.of_list (sorted xs) in
  List.fold_left
    (fun acc p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then
        let k = min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1) in
        Some (p, a.(max 0 k))
      else acc)
    None [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

(* ------------------------------------------------------------------ *)
(* metric sets *)

(* layers timed by the mirrors; each gives <name>_ms and
   <name>_alloc_mwords *)
let layer_spans =
  [
    "mdcore.build"; "swgmx.nsearch"; "swgmx.kernel"; "swgmx.kernel_scalar";
    "mdcore.minimize"; "mdcore.pairlist"; "mdcore.pme"; "mdcore.update";
    "swgmx.record"; "swsched.replay"; "swsched.replay_faulty";
    "swgmx.traced_step"; "swtrace.collect"; "swtrace.export";
  ]

(* per-op counters the mirrors record *)
let layer_counters =
  [
    ("swgmx.nsearch_candidates", "count"); ("swgmx.cluster_pairs", "count");
    ("mdcore.shake_iters", "count"); ("swsched.events", "count");
    ("swsched.dma_requests", "count"); ("swsched.dma_retries", "count");
    ("swsched.peak_in_flight", "count"); ("swtrace.events", "count");
    ("swtrace.dropped", "count"); ("swtrace.file_mb", "MB");
    ("sim.kernel_s", "s"); ("sim.step_s", "s"); ("swsched.elapsed_s", "s");
    ("swarch.flops", "count"); ("swarch.dma_bytes", "B");
  ]

(* ------------------------------------------------------------------ *)
(* goldens *)

let golden_path (w : W.t) = Filename.concat golden_dir (w.W.name ^ ".txt")

let read_golden w =
  In_channel.with_open_bin (golden_path w) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
             Some
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

(* Outputs are checked against the golden when the workload's inputs are
   the pinned ones, and otherwise against the first op that produced
   each key.  Returns a description of the first mismatch. *)
let checker ~golden =
  let reference = Hashtbl.create 64 in
  Option.iter (List.iter (fun (k, v) -> Hashtbl.replace reference k v)) golden;
  fun (outputs : W.outputs) ->
    List.find_map
      (fun (k, v) ->
        match Hashtbl.find_opt reference k with
        | Some r when r = v -> None
        | Some r -> Some (Printf.sprintf "%s: %s, expected %s" k v r)
        | None when golden <> None -> Some (k ^ ": not in the golden")
        | None ->
            Hashtbl.add reference k v;
            None)
      outputs

(* ------------------------------------------------------------------ *)
(* one workload in this process *)

let now = Unix.gettimeofday

let peak_rss_mb () =
  In_channel.with_open_bin "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %f kB" (fun kb -> kb /. 1024.0))
  |> Option.value ~default:Float.nan

let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let result_json ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
                metrics) );
       ])

let print_metrics metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-34s %16.6g %s\n" name v unit)
    metrics

(* every workload runs at --domains 1 and writes only under [out_dir] *)
let init () =
  Swpar.Domains.set 1;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let run_workload (w : W.t) ~seed ~seconds ~trace =
  init ();
  let golden =
    if (not w.W.seeded) || seed = default_seed then Some (read_golden w) else None
  in
  let check = checker ~golden in
  if trace then L.enable ();
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let inst = L.span "bench.setup" (fun () -> w.W.setup ~seed ~out_dir) in
        (now () -. t0, inst))
  in
  let setup_s = median (List.map fst setups) in
  let inst = snd (List.nth setups (setup_reps - 1)) in
  let times = ref [] and rates = ref [] and allocs = ref [] and gcs = ref 0 in
  let attempted = ref 0 and failed = ref 0 and last_failed = ref false in
  let mirrors = ref 0 and mirror_s = ref 0.0 in
  let fail i why =
    incr failed;
    last_failed := true;
    Printf.eprintf "%s: op %d failed: %s\n%!" w.W.name i why
  in
  let start = now () in
  while !attempted = 0 || now () -. start < float_of_int seconds do
    let i = !attempted in
    incr attempted;
    last_failed := false;
    let s0 = Gc.quick_stat () in
    let t0 = now () in
    let r = try Ok (L.paused (fun () -> inst.W.op i)) with e -> Error e in
    let t1 = now () in
    let s1 = Gc.quick_stat () in
    times := (t1 -. t0) :: !times;
    allocs := (words s1 -. words s0) :: !allocs;
    gcs := !gcs + s1.Gc.minor_collections - s0.Gc.minor_collections;
    match r with
    | Error e -> fail i (Printexc.to_string e)
    | Ok (outputs, units) -> (
        rates := (units /. (t1 -. t0)) :: !rates;
        match check outputs with
        | Some why -> fail i why
        | None when trace -> (
            let m0 = now () in
            let mirrored =
              try check (L.span "bench.mirror" (fun () -> inst.W.mirror i))
              with e -> Some (Printexc.to_string e)
            in
            mirror_s := !mirror_s +. (now () -. m0);
            incr mirrors;
            inst.W.diagnostic ();
            match mirrored with Some why -> fail i ("mirror " ^ why) | None -> ())
        | None -> ())
  done;
  let peak = peak_rss_mb () in
  (match try check (inst.W.after ()) with e -> Some (Printexc.to_string e) with
  | Some why ->
      if not !last_failed then incr failed;
      Printf.eprintf "%s: check after the run failed: %s\n%!" w.W.name why
  | None -> ());
  let ops = float_of_int !attempted in
  let op_mean_ms = List.fold_left ( +. ) 0.0 !times /. ops *. 1e3 in
  let metrics =
    if not trace then
      [
        ("setup_s", "s", setup_s);
        ("op_p50_ms", "ms", median !times *. 1e3);
        ("work_per_s", "1/s", median !rates);
        ("alloc_mwords_per_op", "Mwords", List.fold_left ( +. ) 0.0 !allocs /. ops /. 1e6);
        ("peak_rss_mb", "MB", peak);
      ]
    else begin
      L.write_json
        (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" w.W.name seed));
      let summary = L.summary () in
      let layer name =
        Option.value
          ~default:{ L.self_s = 0.0; self_words = 0.0 }
          (Hashtbl.find_opt summary name)
      in
      let per_mirror = float_of_int (max 1 !mirrors) in
      let mirror_ms = !mirror_s /. per_mirror *. 1e3 in
      let mirror_layers_ms = mirror_ms -. ((layer "bench.mirror").L.self_s *. 1e3) in
      [
        ("bench.setup_ms", "ms", setup_s *. 1e3);
        ("bench.op_ms", "ms", op_mean_ms);
        ("bench.mirror_ms", "ms", mirror_ms);
        ("bench.unattributed_ms", "ms", op_mean_ms -. mirror_layers_ms);
        ("bench.trace_overhead_pct", "%", (mirror_ms -. op_mean_ms) /. op_mean_ms *. 100.0);
        ("gc.minor_collections", "count", float_of_int !gcs /. ops);
      ]
      @ List.concat_map
          (fun name ->
            let l = layer name in
            [
              (name ^ "_ms", "ms", l.L.self_s *. 1e3);
              (name ^ "_alloc_mwords", "Mwords", l.L.self_words /. 1e6);
            ])
          layer_spans
      @ List.map
          (fun (name, unit) ->
            ( name,
              unit,
              Option.value ~default:0.0 (Hashtbl.find_opt L.counters name)
              /. per_mirror ))
          layer_counters
    end
  in
  Printf.printf "%s  seed %d  %d s  trace %s  (%s)\n" w.W.name seed seconds
    (if trace then "on" else "off")
    (if w.W.seeded then "seeded" else "ignores --seed");
  print_metrics metrics;
  if not trace then begin
    (match tail !times with
    | Some (p, v) -> Printf.printf "  %-34s %16.6g ms (p%g)\n" "op_tail_ms" (v *. 1e3) p
    | None ->
        Printf.printf "  %-34s %16s (%d ops: none with 10 ops beyond it)\n"
          "op_tail_ms" "-" !attempted);
    Printf.printf "  %-34s %16s %s\n" "work unit" "" w.W.work_unit
  end;
  Printf.printf "  attempted %d  failed %d  fail_ratio %g\n" !attempted !failed
    (float_of_int !failed /. ops);
  print_endline
    (result_json ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics)

(* ------------------------------------------------------------------ *)
(* all workloads, each in a child process *)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let metric_values (r : J.t) =
  match J.member "metrics" r with
  | Some (J.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) J.to_float))
        fields
  | _ -> []

let run_child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  print_string out;
  flush stdout;
  match (status, J.of_string (last_line out)) with
  | Unix.WEXITED 0, Ok r -> r
  | _ -> failwith (Printf.sprintf "%s seed %d: child run failed" workload seed)

let collect ~seed ~runs ~seconds ~trace ~out =
  (* seed-major, so each workload's runs are spread over the whole
     collection rather than bunched into one stretch of host load *)
  let results =
    List.concat
      (List.init runs (fun k ->
           let s = seed + k in
           List.map
             (fun (w : W.t) ->
               (w.W.name, s, run_child ~workload:w.W.name ~seed:s ~seconds ~trace))
             W.all))
  in
  if runs > 1 then begin
    Printf.printf "\n%-10s %-28s %14s %14s %14s %8s\n" "workload" "metric" "median" "q1" "q3"
      "spread";
    List.iter
      (fun (w : W.t) ->
        let mine = List.filter (fun (n, _, _) -> n = w.W.name) results in
        let names = match mine with (_, _, r) :: _ -> List.map fst (metric_values r) | [] -> [] in
        List.iter
          (fun name ->
            let xs =
              List.filter_map (fun (_, _, r) -> List.assoc_opt name (metric_values r)) mine
            in
            let q1, med, q3 = quartiles xs in
            Printf.printf "%-10s %-28s %14.6g %14.6g %14.6g %7.2f%%\n" w.W.name name med q1 q3
              ((q3 -. q1) /. Float.abs med *. 100.0))
          names)
      W.all
  end;
  Option.iter
    (fun path ->
      let doc =
        J.Arr
          (List.map
             (fun (name, s, r) ->
               J.Obj [ ("workload", J.Str name); ("seed", J.Num (float_of_int s)); ("result", r) ])
             results)
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (J.to_string doc ^ "\n"));
      Printf.printf "wrote %s\n" path)
    out

(* ------------------------------------------------------------------ *)
(* compare two sets *)

type bound = { metric : string; lower_is_better : bool; bound : float }

let parse_file path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let bounds () =
  let doc = parse_file "BENCHMARK.json" in
  Option.value ~default:[] (Option.bind (J.member "end_to_end" doc) J.to_list)
  |> List.filter_map (fun m ->
         match
           ( Option.bind (J.member "name" m) J.to_str,
             Option.bind (J.member "better" m) J.to_str,
             Option.bind (J.member "bound" m) J.to_float )
         with
         | Some metric, Some better, Some bound ->
             Some { metric; lower_is_better = better = "lower"; bound }
         | _ -> None)

(* (workload, metrics, attempted, failed) rows of a set file, in run order *)
let load_set path =
  Option.value ~default:[] (J.to_list (parse_file path))
  |> List.filter_map (fun e ->
         match (Option.bind (J.member "workload" e) J.to_str, J.member "result" e) with
         | Some w, Some r ->
             let num k = Option.value ~default:0.0 (Option.bind (J.member k r) J.to_float) in
             Some (w, metric_values r, num "attempted", num "failed")
         | _ -> None)

let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

(* The regression rules, with A the base and B the change: a
   metric whose base spread exceeds its bound is unresolved unless every
   B run beats every A run; B is worse when its median is worse by more
   than the bound; B is better when it wins at least nine tenths of the
   runs paired in order (the same seeds, when both sets were collected
   alike) and the medians differ by more than A's quartile distance. *)
let verdict m ~a ~b =
  let better x y = if m.lower_is_better then x < y else x > y in
  let qa1, ma, qa3 = quartiles a and _, mb, _ = quartiles b in
  let worse_by = (if m.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let all_better = List.for_all (fun y -> List.for_all (better y) a) b in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  if (qa3 -. qa1) /. Float.abs ma > m.bound && not all_better then "unresolved"
  else if worse_by > m.bound then "worse"
  else if
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (mb -. ma) > qa3 -. qa1
  then "better"
  else "same"

let compare_sets path_a path_b =
  let bounds = bounds () and sa = load_set path_a and sb = load_set path_b in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) sa) in
  let bad = ref false in
  Printf.printf "%-10s %-20s %12s %12s %12s | %12s %12s %12s | %6s  %s\n" "workload" "metric"
    "A q1" "A median" "A q3" "B q1" "B median" "B q3" "bound" "verdict";
  List.iter
    (fun w ->
      let rows s = List.filter (fun (w', _, _, _) -> w' = w) s in
      let values s m = List.filter_map (fun (_, ms, _, _) -> List.assoc_opt m ms) (rows s) in
      List.iter
        (fun m ->
          let a = values sa m.metric and b = values sb m.metric in
          if a <> [] && b <> [] then begin
            let qa1, ma, qa3 = quartiles a and qb1, mb, qb3 = quartiles b in
            let v = verdict m ~a ~b in
            if v = "worse" then bad := true;
            Printf.printf "%-10s %-20s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %5.1f%%  %s\n"
              w m.metric qa1 ma qa3 qb1 mb qb3 (m.bound *. 100.0) v
          end)
        bounds;
      let ratio s =
        let att, fl = List.fold_left (fun (a, f) (_, _, x, y) -> (a +. x, f +. y)) (0.0, 0.0) (rows s) in
        if att > 0.0 then fl /. att else 0.0
      in
      let fa = ratio sa and fb = ratio sb in
      Printf.printf "%-10s %-20s %12s %12g %12s | %12s %12g %12s | %6s  %s\n" w "fail_ratio" "" fa ""
        "" fb "" "0" (if fb > fa then "worse" else "same");
      if fb > fa then bad := true)
    workloads;
  if !bad then exit 1

(* ------------------------------------------------------------------ *)
(* pin the goldens *)

(* golden keys that bench/main.exe --json also reports *)
let main_keys =
  [
    ("price24k", "step_time", "step24k_serial_s");
    ("replay3k", "ch1/buf2/err0 elapsed", "mark3k_scheduled_s");
    ("replay3k", "ch1/buf2/err0 events", "mark3k_sched_events");
    ("replay3k", "ch1/buf2/err0.05 elapsed", "fault_dma5pct_sched_s");
    ("replay3k", "ch1/buf2/err0.05 dma_retries", "fault_dma5pct_retries");
  ]

let pin main_json =
  init ();
  let main =
    Option.map
      (fun path -> Option.value ~default:J.Null (J.member "simulated" (parse_file path)))
      main_json
  in
  let mismatches = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let inst = w.W.setup ~seed:default_seed ~out_dir in
      let seen = Hashtbl.create 64 and order = ref [] in
      let add outputs =
        List.fold_left
          (fun fresh (k, v) ->
            match Hashtbl.find_opt seen k with
            | Some v' when v' <> v -> failwith (Printf.sprintf "%s: %s is not reproducible" w.W.name k)
            | Some _ -> fresh
            | None ->
                Hashtbl.add seen k v;
                order := (k, v) :: !order;
                true)
          false outputs
      in
      (* every distinct op until one adds no key, each with its mirror *)
      let rec go i =
        let fresh = add (fst (inst.W.op i)) in
        ignore (add (inst.W.mirror i));
        if fresh then go (i + 1)
      in
      go 0;
      ignore (add (inst.W.after ()));
      let lines = List.rev_map (fun (k, v) -> k ^ "\t" ^ v) !order in
      Out_channel.with_open_bin (golden_path w) (fun oc ->
          Out_channel.output_string oc (String.concat "\n" lines ^ "\n"));
      Printf.printf "%s: %d keys -> %s\n%!" w.W.name (List.length lines) (golden_path w);
      List.iter
        (fun (wn, key, main_key) ->
          if wn = w.W.name then begin
            let ours = float_of_string (Hashtbl.find seen key) in
            match Option.bind (Option.bind main (J.member main_key)) J.to_float with
            | None -> Printf.printf "  %s = %.12g (bench/main.exe %s)\n" key ours main_key
            | Some theirs ->
                let same = Printf.sprintf "%.12g" ours = Printf.sprintf "%.12g" theirs in
                if not same then incr mismatches;
                Printf.printf "  %s = %.12g, bench/main.exe %s = %.12g: %s\n" key ours main_key
                  theirs (if same then "agrees" else "DIFFERS")
          end)
        main_keys)
    W.all;
  if !mismatches > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* command line *)

open Cmdliner

let workload_conv = Arg.enum (List.map (fun (w : W.t) -> (w.W.name, w)) W.all)

let run_term =
  let workload =
    Arg.(value & opt (some workload_conv) None
         & info [ "workload" ] ~doc:"Run only this workload, in this process.")
  in
  let seed =
    Arg.(value & opt int default_seed & info [ "seed" ] ~doc:"Workload seed (first of $(b,--runs)).")
  in
  let seconds =
    Arg.(value & opt int 20 & info [ "seconds" ] ~doc:"Seconds of closed-loop ops per run.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~doc:"1: mirror every op layer by layer and report per-layer metrics.")
  in
  let runs =
    Arg.(value & opt int 1
         & info [ "runs" ] ~doc:"Without $(b,--workload): seeds per workload, each in a child process.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~doc:"Without $(b,--workload): write the set of results to this file.")
  in
  let run workload seed seconds trace runs out =
    if seconds < 1 || runs < 1 then `Error (true, "--seconds and --runs must be positive")
    else
      match workload with
      | Some w -> `Ok (run_workload w ~seed ~seconds ~trace)
      | None -> `Ok (collect ~seed ~runs ~seconds ~trace ~out)
  in
  Term.(ret (const run $ workload $ seed $ seconds $ trace $ runs $ out))

let compare_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:"SET" ~doc) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two result sets (A the base, B the change); exit 1 on a regression.")
    Term.(const compare_sets $ file 0 "Base set." $ file 1 "Changed set.")

let pin_cmd =
  let main_json =
    Arg.(value & opt (some file) None
         & info [ "main-json" ] ~doc:"Check the shared keys against this bench/main.exe --json file.")
  in
  Cmd.v (Cmd.info "pin" ~doc:"Rewrite perfbench/golden/ from the default seed.") Term.(const pin $ main_json)

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term
          (Cmd.info "e2e" ~doc:"End-to-end host-time benchmark of the SW_GROMACS reproduction.")
          [ compare_cmd; pin_cmd ]))
