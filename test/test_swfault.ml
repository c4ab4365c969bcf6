(* Tests for swfault: deterministic fault injection and recovery.

   The properties the subsystem promises, in rough order: the
   counter-based RNG is replay-stable and stream-independent; plans
   round-trip through their string form and reject nonsense; the zero
   plan is invisible (bit-identical schedules and trajectories); fault
   runs are deterministic per seed; recovery restores the exact
   fault-free physics (rollback, restart, re-striping); and the priced
   checkpoint-interval trade-off has the textbook U shape. *)

module F = Swfault
module S = Swsched
module K = Swgmx.Kernel_common

let cfg = Swarch.Config.default

(* tolerance class: physical-drift — replayed-time sums; rel 1e-9 with
   an absolute floor of 1e-15 for exactly-zero expectations *)
let check_close name expected got =
  try
    Swverify.Tol.check ~what:name
      (Swverify.Tol.rel_abs ~rel:1e-9 ~abs:1e-15)
      expected got
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_range_and_determinism () =
  for i = 0 to 999 do
    let u = F.Rng.uniform ~seed:7 ~stream:1 ~index:i in
    if not (u >= 0.0 && u < 1.0) then
      Alcotest.failf "uniform out of [0,1): %.17g at index %d" u i;
    let u' = F.Rng.uniform ~seed:7 ~stream:1 ~index:i in
    Alcotest.(check (float 0.0)) "replay-stable" u u'
  done

let test_rng_streams_independent () =
  (* distinct (seed, stream) pairs must not produce the same sequence *)
  let seq seed stream =
    List.init 64 (fun i -> F.Rng.uniform ~seed ~stream ~index:i)
  in
  Alcotest.(check bool) "streams differ" true (seq 7 1 <> seq 7 2);
  Alcotest.(check bool) "seeds differ" true (seq 7 1 <> seq 8 1);
  (* and the values actually spread over the interval *)
  let s = seq 7 1 in
  let mean = List.fold_left ( +. ) 0.0 s /. 64.0 in
  Alcotest.(check bool) "mean sane" true (mean > 0.3 && mean < 0.7)

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_roundtrip () =
  let spec =
    "dma_error=0.1,dma_backoff=1e-06,link_degrade=1.5,link_drop=0.05,\
     ldm_flip=0.2,cpe_dead=9,cpe_dead=17,cpe_slow=3:1.5,cpe_stall=4:2e-06"
  in
  let p = F.Plan.of_string spec in
  let p' = F.Plan.of_string (F.Plan.to_string p) in
  Alcotest.(check bool) "to_string round-trips" true (p = p');
  Alcotest.(check bool) "not zero" true (not (F.Plan.is_zero p));
  Alcotest.(check bool) "empty spec is zero" true
    (F.Plan.is_zero (F.Plan.of_string ""));
  Alcotest.(check bool) "zero is zero" true (F.Plan.is_zero F.Plan.zero)

let test_plan_rejects () =
  let rejects spec =
    match F.Plan.of_string spec with
    | _ -> Alcotest.failf "spec %S should be rejected" spec
    | exception Invalid_argument _ -> ()
  in
  rejects "dma_error=1.5";
  rejects "dma_error=-0.1";
  rejects "link_degrade=0.5";
  rejects "cpe_dead=64";
  rejects "cpe_dead=-1";
  rejects "cpe_dead=3,cpe_dead=3";
  rejects "cpe_slow=3:0";
  rejects "cpe_stall=3:-1e-6";
  rejects "dma_retries=0";
  rejects "no_such_key=1";
  rejects "dma_error";
  rejects "dma_error=abc";
  (* killing every CPE leaves nothing to re-stripe onto *)
  let all = String.concat "," (List.init 64 (fun i -> Fmt.str "cpe_dead=%d" i)) in
  rejects all

(* ------------------------------------------------------------------ *)
(* Error *)

let test_error_guard () =
  (match
     F.Error.guard ~phase:"force" ~cpe:7 (fun () ->
         ignore (Swarch.Ldm.alloc (Swarch.Ldm.create ~capacity:64) 1024);
         ())
   with
  | () -> Alcotest.fail "guard should re-raise Out_of_ldm as Fault"
  | exception F.Error.Fault info ->
      Alcotest.(check string) "phase" "force" info.F.Error.phase;
      Alcotest.(check (option int)) "cpe" (Some 7) info.F.Error.cpe);
  match F.Error.guard ~phase:"x" (fun () -> 41 + 1) with
  | v -> Alcotest.(check int) "value passes through" 42 v

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_injector_rates_nest () =
  (* the set of (id, attempt) pairs failing at a low rate is a subset
     of the set failing at a higher rate: overhead grows monotonically
     with the rate by construction *)
  let strikes rate =
    let inj =
      F.Injector.create ~seed:5
        { F.Plan.zero with F.Plan.dma_error_rate = rate }
    in
    List.init 500 (fun id -> F.Injector.dma_error inj ~id ~attempt:0)
  in
  let lo = strikes 0.05 and hi = strikes 0.2 in
  List.iter2
    (fun l h ->
      if l && not h then Alcotest.fail "low-rate fault missing at high rate")
    lo hi;
  let count l = List.length (List.filter Fun.id l) in
  Alcotest.(check bool) "higher rate strikes more" true (count hi > count lo);
  Alcotest.(check int) "zero rate never strikes" 0 (count (strikes 0.0))

let test_injector_flip_consumed () =
  let inj =
    F.Injector.create ~seed:5 { F.Plan.zero with F.Plan.ldm_flip_rate = 1.0 }
  in
  Alcotest.(check bool) "first query strikes" true
    (F.Injector.ldm_flip inj ~step:3);
  (* the replayed step must not be struck again, or rollback loops *)
  Alcotest.(check bool) "same step never strikes twice" false
    (F.Injector.ldm_flip inj ~step:3)

(* ------------------------------------------------------------------ *)
(* Schedule replay under faults *)

let record_mark particles =
  let p = Swbench.Common.prepare ~particles () in
  let cg = Swarch.Core_group.create cfg in
  let r = S.Recorder.create cfg in
  let spec = Swgmx.Kernel_cpe.spec_of_variant Swgmx.Variant.Mark in
  ignore
    (Swgmx.Kernel_cpe.run ~sched:r p.Swbench.Common.sys p.Swbench.Common.pairs
       cg spec);
  r

let test_schedule_zero_plan_invisible () =
  let r = record_mark 600 in
  let base = S.Schedule.run ~buffers:2 cfg r in
  let inj = F.Injector.create ~seed:5 F.Plan.zero in
  let z = S.Schedule.run ~buffers:2 ~faults:inj cfg r in
  Alcotest.(check bool) "zero plan is bit-invisible" true (base = z);
  Alcotest.(check int) "no retries" 0 z.S.Schedule.dma_retries

let test_schedule_faults_deterministic () =
  let r = record_mark 600 in
  let run () =
    let inj =
      F.Injector.create ~seed:5
        { F.Plan.zero with F.Plan.dma_error_rate = 0.1 }
    in
    S.Schedule.run ~buffers:2 ~faults:inj cfg r
  in
  let s1 = run () and s2 = run () in
  Alcotest.(check bool) "same seed, bit-identical schedule" true (s1 = s2);
  Alcotest.(check bool) "errors actually injected" true
    (s1.S.Schedule.dma_retries > 0)

let test_schedule_overhead_monotone () =
  let r = record_mark 600 in
  let elapsed rate =
    let inj =
      F.Injector.create ~seed:5
        { F.Plan.zero with F.Plan.dma_error_rate = rate }
    in
    (S.Schedule.run ~buffers:2 ~faults:inj cfg r).S.Schedule.elapsed
  in
  let prev = ref (elapsed 0.0) in
  List.iter
    (fun rate ->
      let e = elapsed rate in
      if e < !prev -. 1e-15 then
        Alcotest.failf "elapsed shrank at rate %g: %.12g < %.12g" rate e !prev;
      prev := e)
    [ 0.02; 0.05; 0.1; 0.2 ]

let test_schedule_degraded_cpe_slower () =
  let r = record_mark 600 in
  let base = (S.Schedule.run ~buffers:2 cfg r).S.Schedule.elapsed in
  let inj =
    F.Injector.create ~seed:5
      { F.Plan.zero with F.Plan.cpe_slowdown = [ (0, 2.0) ];
        F.Plan.cpe_stall_s = [ (1, 1e-5) ] }
  in
  let slow = (S.Schedule.run ~buffers:2 ~faults:inj cfg r).S.Schedule.elapsed in
  Alcotest.(check bool) "degraded CPEs stretch the schedule" true (slow > base)

(* ------------------------------------------------------------------ *)
(* Kernel: dead-CPE re-striping *)

let test_dead_cpe_restripe () =
  let p = Swbench.Common.prepare ~particles:600 () in
  let cg_b = Swarch.Core_group.create cfg in
  let base =
    Swgmx.Kernel.run p.Swbench.Common.sys p.Swbench.Common.pairs cg_b
      Swgmx.Variant.Mark
  in
  let inj =
    F.Injector.create ~seed:5
      { F.Plan.zero with F.Plan.cpe_dead = [ 9; 17 ] }
  in
  let cg_d = Swarch.Core_group.create cfg in
  let dead =
    Swgmx.Kernel.run ~faults:inj p.Swbench.Common.sys p.Swbench.Common.pairs
      cg_d Swgmx.Variant.Mark
  in
  (* the survivors cover every slab: same pairs, energies equal up to
     summation order *)
  Alcotest.(check int) "pair count preserved"
    base.Swgmx.Kernel.result.K.pairs_in_cutoff
    dead.Swgmx.Kernel.result.K.pairs_in_cutoff;
  check_close "e_lj preserved" (K.e_lj base.Swgmx.Kernel.result)
    (K.e_lj dead.Swgmx.Kernel.result);
  check_close "e_coul preserved" (K.e_coul base.Swgmx.Kernel.result)
    (K.e_coul dead.Swgmx.Kernel.result);
  (* dead CPEs did no work, survivors did all of it *)
  let cost (c : Swarch.Cpe.t) = c.Swarch.Cpe.cost.Swarch.Cost.scalar_flops in
  Alcotest.(check (float 0.0)) "cpe 9 idle" 0.0
    (cost cg_d.Swarch.Core_group.cpes.(9));
  Alcotest.(check (float 0.0)) "cpe 17 idle" 0.0
    (cost cg_d.Swarch.Core_group.cpes.(17));
  Alcotest.(check bool) "63-wide run is no faster" true
    (dead.Swgmx.Kernel.elapsed >= base.Swgmx.Kernel.elapsed -. 1e-15)

(* ------------------------------------------------------------------ *)
(* Engine: rollback, restart, zero-plan identity *)

let protected ?faults ?checkpoint_every ?restart ?on_checkpoint steps =
  Swgmx.Engine.simulate_protected ?faults ?checkpoint_every ?restart
    ?on_checkpoint ~molecules:8 ~seed:42 ~steps ~sample_every:2 ()

let baseline steps =
  let samples, st, _ = protected steps in
  (samples, st)

let check_same_trajectory name (s1, (st1 : Mdcore.Md_state.t))
    (s2, (st2 : Mdcore.Md_state.t)) =
  Alcotest.(check int) (name ^ ": sample count") (List.length s1)
    (List.length s2);
  List.iter2
    (fun (a : Swgmx.Engine.sample) (b : Swgmx.Engine.sample) ->
      Alcotest.(check int) (name ^ ": step") a.Swgmx.Engine.step
        b.Swgmx.Engine.step;
      Alcotest.(check (float 0.0))
        (name ^ ": energy bit-identical")
        a.Swgmx.Engine.total_energy b.Swgmx.Engine.total_energy)
    s1 s2;
  Alcotest.(check bool) (name ^ ": positions bit-identical") true
    (st1.Mdcore.Md_state.pos = st2.Mdcore.Md_state.pos);
  Alcotest.(check bool) (name ^ ": velocities bit-identical") true
    (st1.Mdcore.Md_state.vel = st2.Mdcore.Md_state.vel)

let test_engine_rollback_exact () =
  let samples, st = baseline 12 in
  let inj =
    F.Injector.create ~seed:11
      { F.Plan.zero with F.Plan.ldm_flip_rate = 0.6 }
  in
  let fs, fst_, stats = protected ~faults:inj 12 in
  Alcotest.(check bool) "flips forced rollbacks" true
    (stats.F.Recovery.rollbacks > 0);
  Alcotest.(check bool) "rollbacks replayed steps" true
    (stats.F.Recovery.replayed_steps > 0);
  check_same_trajectory "rollback" (samples, st) (fs, fst_);
  (* a different injector seed flips at different steps but lands on
     the same physics *)
  let inj2 =
    F.Injector.create ~seed:12
      { F.Plan.zero with F.Plan.ldm_flip_rate = 0.6 }
  in
  let fs2, fst2, stats2 = protected ~faults:inj2 12 in
  Alcotest.(check bool) "seed 12 also rolled back" true
    (stats2.F.Recovery.rollbacks > 0);
  check_same_trajectory "rollback seed 12" (samples, st) (fs2, fst2)

let test_engine_restart_exact () =
  let full_s, full_st = baseline 20 in
  let cks = ref [] in
  let _, _, stats =
    protected ~checkpoint_every:10 ~on_checkpoint:(fun ck -> cks := ck :: !cks)
      20
  in
  Alcotest.(check int) "three checkpoints (0, 10, 20)" 3
    stats.F.Recovery.checkpoints;
  let mid =
    List.find (fun ck -> ck.Swio.Checkpoint.step = 10) !cks
  in
  (* serialize/deserialize on the way, as the CLI does *)
  let mid = Swio.Checkpoint.of_string (Swio.Checkpoint.to_string mid) in
  let rs, rst, _ = protected ~restart:mid 20 in
  let tail = List.filter (fun (s : Swgmx.Engine.sample) -> s.Swgmx.Engine.step > 10) full_s in
  check_same_trajectory "restart tail" (tail, full_st) (rs, rst)

let test_engine_zero_plan_invisible () =
  let samples, st = baseline 10 in
  let inj = F.Injector.create ~seed:11 F.Plan.zero in
  let fs, fst_, stats = protected ~faults:inj 10 in
  Alcotest.(check int) "no rollbacks" 0 stats.F.Recovery.rollbacks;
  check_same_trajectory "zero plan" (samples, st) (fs, fst_)

(* ------------------------------------------------------------------ *)
(* Fault track tracing *)

let test_fault_track_paired () =
  Swtrace.Trace.enable ();
  Fun.protect ~finally:Swtrace.Trace.disable @@ fun () ->
  let inj =
    F.Injector.create ~seed:11
      { F.Plan.zero with F.Plan.ldm_flip_rate = 0.6 }
  in
  let _, _, stats = protected ~faults:inj 12 in
  Alcotest.(check bool) "rollbacks happened" true
    (stats.F.Recovery.rollbacks > 0);
  let events = Swtrace.Trace.events () in
  let fault_events =
    List.filter
      (fun (e : Swtrace.Event.t) -> e.Swtrace.Event.cat = "fault")
      events
  in
  Alcotest.(check bool) "fault track populated" true (fault_events <> []);
  let id_of (e : Swtrace.Event.t) = List.assoc "id" e.Swtrace.Event.args in
  let with_prefix p =
    List.filter
      (fun (e : Swtrace.Event.t) ->
        String.length e.Swtrace.Event.name >= String.length p
        && String.sub e.Swtrace.Event.name 0 (String.length p) = p)
      fault_events
  in
  let injects = with_prefix "inject:" and recovers = with_prefix "recover:" in
  Alcotest.(check bool) "injections recorded" true (injects <> []);
  List.iter
    (fun inj_ev ->
      let id = id_of inj_ev in
      if not (List.exists (fun r -> id_of r = id) recovers) then
        Alcotest.failf "injection id %g has no recovery" id)
    injects;
  let s = F.Injector.stats inj in
  Alcotest.(check int) "stats agree with track"
    s.F.Injector.injections s.F.Injector.recoveries

(* ------------------------------------------------------------------ *)
(* Recovery pricing *)

let test_recovery_price_ushape () =
  let price interval =
    (F.Recovery.price ~steps:100000 ~interval ~fault_rate:1e-3 ~step_s:1e-3
       ~ckpt_s:5e-3 ~restart_s:1e-2)
      .F.Recovery.total_s
  in
  let opt =
    F.Recovery.optimal_interval ~fault_rate:1e-3 ~step_s:1e-3 ~ckpt_s:5e-3
  in
  Alcotest.(check bool) "optimum in sane range" true (opt > 1 && opt < 100000);
  let at_opt = price opt in
  Alcotest.(check bool) "checkpointing too often costs more" true
    (price 1 > at_opt);
  Alcotest.(check bool) "checkpointing too rarely costs more" true
    (price 100000 > at_opt);
  let p =
    F.Recovery.price ~steps:1000 ~interval:100 ~fault_rate:0.0 ~step_s:1e-3
      ~ckpt_s:5e-3 ~restart_s:1e-2
  in
  check_close "no faults, no rework" 0.0 p.F.Recovery.rework_s;
  check_close "total = compute + checkpoints"
    (p.F.Recovery.compute_s +. p.F.Recovery.checkpoint_s)
    p.F.Recovery.total_s

let suites =
  [
    ( "swfault",
      [
        Alcotest.test_case "rng: range + determinism" `Quick
          test_rng_range_and_determinism;
        Alcotest.test_case "rng: stream independence" `Quick
          test_rng_streams_independent;
        Alcotest.test_case "plan: round-trip" `Quick test_plan_roundtrip;
        Alcotest.test_case "plan: rejects nonsense" `Quick test_plan_rejects;
        Alcotest.test_case "error: structured guard" `Quick test_error_guard;
        Alcotest.test_case "injector: rates nest" `Quick
          test_injector_rates_nest;
        Alcotest.test_case "injector: flip consumed" `Quick
          test_injector_flip_consumed;
        Alcotest.test_case "sched: zero plan invisible" `Quick
          test_schedule_zero_plan_invisible;
        Alcotest.test_case "sched: faults deterministic" `Quick
          test_schedule_faults_deterministic;
        Alcotest.test_case "sched: overhead monotone in rate" `Quick
          test_schedule_overhead_monotone;
        Alcotest.test_case "sched: degraded CPEs slower" `Quick
          test_schedule_degraded_cpe_slower;
        Alcotest.test_case "kernel: dead CPE re-striped" `Quick
          test_dead_cpe_restripe;
        Alcotest.test_case "engine: rollback restores physics" `Quick
          test_engine_rollback_exact;
        Alcotest.test_case "engine: restart bit-identical" `Quick
          test_engine_restart_exact;
        Alcotest.test_case "engine: zero plan invisible" `Quick
          test_engine_zero_plan_invisible;
        Alcotest.test_case "trace: fault track paired" `Quick
          test_fault_track_paired;
        Alcotest.test_case "recovery: priced U-shape" `Quick
          test_recovery_price_ushape;
      ] );
  ]
