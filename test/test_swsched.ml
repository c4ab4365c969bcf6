(* Tests for swsched, the discrete-event pipeline scheduler.

   The synthetic tests build recordings by hand, where exact elapsed
   times are predictable; the kernel tests run the real Mark kernel
   recorded and replayed, checking the three properties the subsystem
   promises: determinism, physics conservation, and scheduled time
   bracketed by the analytic serial / ideal-overlap bounds. *)

module S = Swsched
module K = Swgmx.Kernel_common

let cfg = Swarch.Config.default

let check_close name expected got =
  let tol = 1e-15 +. (1e-9 *. Float.abs expected) in
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ------------------------------------------------------------------ *)
(* Sim: event ordering *)

let test_sim_ordering () =
  let sim = S.Sim.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  S.Sim.schedule sim ~at:3.0 (ev "c");
  S.Sim.schedule sim ~at:1.0 (ev "a1");
  S.Sim.schedule sim ~at:2.0 (ev "b");
  S.Sim.schedule sim ~at:1.0 (ev "a2");
  Alcotest.(check int) "pending before run" 4 (S.Sim.pending sim);
  S.Sim.run sim;
  Alcotest.(check (list string))
    "time order, FIFO within an instant"
    [ "a1"; "a2"; "b"; "c" ]
    (List.rev !log);
  check_close "clock at last event" 3.0 (S.Sim.now sim);
  Alcotest.(check int) "all processed" 4 (S.Sim.processed sim)

let test_sim_same_instant_appends () =
  (* an event scheduling at the current instant runs after the events
     already queued for that instant *)
  let sim = S.Sim.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  S.Sim.schedule sim ~at:1.0 (fun () ->
      S.Sim.schedule sim ~at:1.0 (ev "tail"));
  S.Sim.schedule sim ~at:1.0 (ev "second");
  S.Sim.run sim;
  Alcotest.(check (list string)) "order" [ "second"; "tail" ] (List.rev !log)

let test_sim_past_raises () =
  let sim = S.Sim.create () in
  S.Sim.schedule sim ~at:1.0 ignore;
  S.Sim.run sim;
  match S.Sim.schedule sim ~at:0.5 ignore with
  | () -> Alcotest.fail "scheduling in the past should raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Dma_engine: service times *)

let test_dma_single_full_rate () =
  let sim = S.Sim.create () in
  let eng = S.Dma_engine.create ~channels:1.0 sim cfg in
  let done_at = ref Float.nan in
  S.Dma_engine.issue eng ~bytes:100 ~demand:2.0 ~on_complete:(fun t ->
      done_at := t);
  S.Sim.run sim;
  check_close "uncontended transfer = demand" 2.0 !done_at;
  Alcotest.(check int) "requests" 1 (S.Dma_engine.requests eng);
  check_close "bytes" 100.0 (S.Dma_engine.bytes_moved eng);
  check_close "busy" 2.0 (S.Dma_engine.busy_seconds eng);
  check_close "no contention" 0.0 (S.Dma_engine.contended_seconds eng)

let test_dma_processor_sharing () =
  (* two equal transfers on one channel each progress at half rate:
     both complete at twice the single-transfer time *)
  let sim = S.Sim.create () in
  let eng = S.Dma_engine.create ~channels:1.0 sim cfg in
  let times = ref [] in
  for _ = 1 to 2 do
    S.Dma_engine.issue eng ~bytes:64 ~demand:1.0 ~on_complete:(fun t ->
        times := t :: !times)
  done;
  S.Sim.run sim;
  List.iter (check_close "shared bus completion" 2.0) !times;
  check_close "bus saturated throughout" 2.0 (S.Dma_engine.contended_seconds eng);
  Alcotest.(check int) "peak in flight" 2 (S.Dma_engine.peak_in_flight eng)

let test_dma_slots_backlog () =
  (* one service slot: transfers serialize through the FIFO backlog
     even though the bus itself has channels to spare *)
  let sim = S.Sim.create () in
  let eng = S.Dma_engine.create ~channels:4.0 ~slots:1 sim cfg in
  let times = ref [] in
  for _ = 1 to 3 do
    S.Dma_engine.issue eng ~bytes:64 ~demand:1.0 ~on_complete:(fun t ->
        times := t :: !times)
  done;
  S.Sim.run sim;
  Alcotest.(check (list (float 1e-9)))
    "FIFO completion times" [ 1.0; 2.0; 3.0 ] (List.rev !times);
  Alcotest.(check int) "slot bound respected" 1 (S.Dma_engine.peak_in_flight eng);
  (* second and third request waited 1 s and 2 s in the backlog *)
  check_close "queue wait" 3.0 (S.Dma_engine.queue_wait_seconds eng)

(* ------------------------------------------------------------------ *)
(* Synthetic pipeline: exact elapsed times *)

let fetch_bytes = 768

(* per-item compute sized so compute >= fetch: the depth-2 steady
   state then hides every fetch but the first *)
let work_glds () =
  let f =
    let c = Swarch.Cost.create () in
    Swarch.Dma.get cfg c ~bytes:fetch_bytes;
    c.Swarch.Cost.dma_time_s
  in
  let g1 =
    let c = Swarch.Cost.create () in
    Swarch.Cost.gld c 1;
    Swarch.Cost.cpe_compute_time cfg c
  in
  if g1 <= 0.0 then Alcotest.fail "gld has no compute cost";
  max 1 (int_of_float (Float.ceil (f /. g1)) * 2)

let record_synthetic ~n =
  let r = S.Recorder.create cfg in
  let cost = Swarch.Cost.create () in
  let k = work_glds () in
  S.Recorder.task r ~id:0 ~cost (fun () ->
      S.Pipeline.run ~sched:r
        ~stages:
          {
            S.Pipeline.fetch =
              (fun _ -> Swarch.Dma.get cfg cost ~bytes:fetch_bytes);
            compute = (fun _ -> Swarch.Cost.gld cost k);
          }
        ~buffers:1 ~n ());
  r

(* (fetch demand, compute work) of every recorded item *)
let item_times r =
  match S.Recorder.phases r with
  | [ { S.Recorder.tasks = [ { S.Recorder.items; _ } ]; _ } ] ->
      List.map
        (fun (it : S.Recorder.item) ->
          let f =
            List.fold_left
              (fun a (x : S.Recorder.xfer) -> a +. x.S.Recorder.demand)
              0.0 it.S.Recorder.prefetch
          in
          let w =
            List.fold_left
              (fun a op ->
                match op with S.Recorder.Work d -> a +. d | _ -> a)
              0.0 it.S.Recorder.body
          in
          (f, w))
        items
  | _ -> Alcotest.fail "unexpected recording shape"

let test_recording_shape () =
  let n = 5 in
  let r = record_synthetic ~n in
  let fw = item_times r in
  Alcotest.(check int) "one item per package" n (List.length fw);
  List.iter
    (fun (f, w) ->
      Alcotest.(check bool) "fetch recorded" true (f > 0.0);
      Alcotest.(check bool) "work recorded" true (w > 0.0);
      Alcotest.(check bool) "compute dominates" true (w >= f))
    fw;
  check_close "bytes conserved"
    (float_of_int (n * fetch_bytes))
    (S.Recorder.total_dma_bytes r)

let test_depth1_degrades_to_serial () =
  let n = 6 in
  let r = record_synthetic ~n in
  let serial =
    List.fold_left (fun a (f, w) -> a +. f +. w) 0.0 (item_times r)
  in
  let s = S.Schedule.run ~channels:4.0 ~buffers:1 cfg r in
  check_close "no lookahead = serial sum" serial s.S.Schedule.elapsed

let test_depth2_hides_fetch () =
  let n = 6 in
  let r = record_synthetic ~n in
  let fw = item_times r in
  let f0 = fst (List.hd fw) in
  let total_w = List.fold_left (fun a (_, w) -> a +. w) 0.0 fw in
  let total_f = List.fold_left (fun a (f, _) -> a +. f) 0.0 fw in
  let serial = total_f +. total_w in
  let ideal = Float.max total_w (total_f /. 4.0) in
  let s2 = S.Schedule.run ~channels:4.0 ~buffers:2 cfg r in
  (* steady state: every fetch after the first hides behind compute *)
  check_close "depth 2 = first fetch + all compute" (f0 +. total_w)
    s2.S.Schedule.elapsed;
  Alcotest.(check bool) "beats serial" true (s2.S.Schedule.elapsed < serial);
  Alcotest.(check bool)
    "never beats ideal overlap" true
    (s2.S.Schedule.elapsed >= ideal -. 1e-15);
  (* deeper buffers cannot be slower here, and stay above the bound *)
  let s4 = S.Schedule.run ~channels:4.0 ~buffers:4 cfg r in
  Alcotest.(check bool)
    "depth 4 <= depth 2" true
    (s4.S.Schedule.elapsed <= s2.S.Schedule.elapsed +. 1e-15);
  Alcotest.(check bool)
    "depth 4 above ideal" true
    (s4.S.Schedule.elapsed >= ideal -. 1e-15)

(* ------------------------------------------------------------------ *)
(* Real kernel: determinism, conservation, bounds *)

let test_replay_deterministic () =
  let p = Swbench.Common.prepare ~particles:600 () in
  let cg = Swarch.Core_group.create cfg in
  let r = S.Recorder.create cfg in
  let spec = Swgmx.Kernel_cpe.spec_of_variant Swgmx.Variant.Mark in
  ignore
    (Swgmx.Kernel_cpe.run ~sched:r p.Swbench.Common.sys p.Swbench.Common.pairs
       cg spec);
  let s1 = S.Schedule.run ~buffers:2 cfg r in
  let s2 = S.Schedule.run ~buffers:2 cfg r in
  Alcotest.(check bool) "bit-identical results" true (s1 = s2);
  Alcotest.(check bool) "events processed" true (s1.S.Schedule.events > 0)

let cpe_dma_bytes (cg : Swarch.Core_group.t) =
  Array.fold_left
    (fun a (c : Swarch.Cpe.t) -> a +. c.Swarch.Cpe.cost.Swarch.Cost.dma_bytes)
    0.0 cg.Swarch.Core_group.cpes

let test_pipelined_conserves_physics () =
  let p = Swbench.Common.prepare ~particles:600 () in
  let cg_s = Swarch.Core_group.create cfg in
  let serial =
    Swgmx.Kernel.run p.Swbench.Common.sys p.Swbench.Common.pairs cg_s
      Swgmx.Variant.Mark
  in
  let cg_p = Swarch.Core_group.create cfg in
  let piped =
    Swgmx.Kernel.run ~pipelined:true p.Swbench.Common.sys
      p.Swbench.Common.pairs cg_p Swgmx.Variant.Mark
  in
  (* the physics runs in unchanged serial order: exact equality *)
  Alcotest.(check bool)
    "forces bit-identical" true
    (serial.Swgmx.Kernel.result.K.force = piped.Swgmx.Kernel.result.K.force);
  Alcotest.(check (float 0.0))
    "e_lj bit-identical" (K.e_lj serial.Swgmx.Kernel.result)
    (K.e_lj piped.Swgmx.Kernel.result);
  Alcotest.(check (float 0.0))
    "e_coul bit-identical" (K.e_coul serial.Swgmx.Kernel.result)
    (K.e_coul piped.Swgmx.Kernel.result);
  check_close "DMA bytes unchanged" (cpe_dma_bytes cg_s) (cpe_dma_bytes cg_p);
  match piped.Swgmx.Kernel.sched with
  | None -> Alcotest.fail "pipelined outcome carries no schedule"
  | Some s ->
      check_close "replay moves the same bytes" (cpe_dma_bytes cg_s)
        s.S.Schedule.dma_bytes

let test_scheduled_between_bounds () =
  (* acceptance: on the Table-1 workload the scheduled time falls
     strictly between the analytic serial and ideal-overlap times, at
     every buffer depth.  (Depth ordering itself is not monotone on
     the real kernel: the i-package prefetch is small next to the
     j-cache demand misses, so contention reshuffling dominates.) *)
  let p = Swbench.Common.prepare ~particles:3000 () in
  List.iter
    (fun buffers ->
      let cg = Swarch.Core_group.create cfg in
      let o =
        Swgmx.Kernel.run ~pipelined:true ~buffers p.Swbench.Common.sys
          p.Swbench.Common.pairs cg Swgmx.Variant.Mark
      in
      let serial = Swarch.Core_group.elapsed cg in
      (* ideal overlap: the slower of compute and DMA, then the MPE *)
      let overlapped =
        Float.max
          (Swarch.Core_group.max_compute_time cg)
          (Swarch.Core_group.dma_time cg)
        +. Swarch.Mpe.time cfg cg.Swarch.Core_group.mpe
      in
      if
        not
          (o.Swgmx.Kernel.elapsed > overlapped
          && o.Swgmx.Kernel.elapsed < serial)
      then
        Alcotest.failf
          "buffers=%d: scheduled %.6g not strictly inside (%.6g, %.6g)"
          buffers o.Swgmx.Kernel.elapsed overlapped serial)
    [ 1; 2; 4 ]

let test_schedule_spans_sane () =
  let p = Swbench.Common.prepare ~particles:600 () in
  let cg = Swarch.Core_group.create cfg in
  let o =
    Swgmx.Kernel.run ~pipelined:true p.Swbench.Common.sys
      p.Swbench.Common.pairs cg Swgmx.Variant.Mark
  in
  match o.Swgmx.Kernel.sched with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      Alcotest.(check bool) "spans recorded" true (s.S.Schedule.spans <> []);
      List.iter
        (fun (sp : S.Schedule.span) ->
          if sp.S.Schedule.dur < 0.0 then
            Alcotest.failf "span %s has negative duration" sp.S.Schedule.name;
          if sp.S.Schedule.t +. sp.S.Schedule.dur > s.S.Schedule.elapsed +. 1e-12
          then
            Alcotest.failf "span %s ends after the schedule"
              sp.S.Schedule.name)
        s.S.Schedule.spans;
      (* Mark uses deferred write-back, so both phases must appear and
         the last one must end exactly at the elapsed time *)
      Alcotest.(check bool)
        "main phase" true
        (List.mem_assoc "main" s.S.Schedule.phase_ends);
      Alcotest.(check bool)
        "reduce phase" true
        (List.mem_assoc "reduce" s.S.Schedule.phase_ends);
      let last_end =
        List.fold_left
          (fun a (_, e) -> Float.max a e)
          0.0 s.S.Schedule.phase_ends
      in
      check_close "elapsed = last phase end" last_end s.S.Schedule.elapsed

let suites =
  [
    ( "swsched",
      [
        Alcotest.test_case "sim: event ordering" `Quick test_sim_ordering;
        Alcotest.test_case "sim: same-instant FIFO" `Quick
          test_sim_same_instant_appends;
        Alcotest.test_case "sim: past raises" `Quick test_sim_past_raises;
        Alcotest.test_case "dma: single transfer" `Quick
          test_dma_single_full_rate;
        Alcotest.test_case "dma: processor sharing" `Quick
          test_dma_processor_sharing;
        Alcotest.test_case "dma: slot backlog" `Quick test_dma_slots_backlog;
        Alcotest.test_case "recorder: synthetic shape" `Quick
          test_recording_shape;
        Alcotest.test_case "pipeline: depth 1 = serial" `Quick
          test_depth1_degrades_to_serial;
        Alcotest.test_case "pipeline: depth 2 hides fetch" `Quick
          test_depth2_hides_fetch;
        Alcotest.test_case "schedule: deterministic replay" `Quick
          test_replay_deterministic;
        Alcotest.test_case "kernel: physics conserved" `Quick
          test_pipelined_conserves_physics;
        Alcotest.test_case "kernel: bounds bracket scheduled time" `Quick
          test_scheduled_between_bounds;
        Alcotest.test_case "schedule: spans sane" `Quick
          test_schedule_spans_sane;
      ] );
  ]
