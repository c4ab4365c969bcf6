(* swoffload: LDM tiling plans.

   The plan layer is the single audited source of tile sizes, so its
   edge cases get direct coverage: a working set smaller than one tile
   must produce a single tight tile, uneven work lists must carry a
   remainder tile, and a working set that cannot fit one slot of one
   tile in the LDM budget must fail with a structured error — never a
   silent truncation.  The MD kernels ask for fixed one-item tiles, so
   these cases are what pins [Auto] tiles and remainder tiles. *)

module Plan = Swoffload.Plan

let cfg = Swarch.Config.default
let budget = cfg.Swarch.Config.ldm_bytes

let buf ?(name = "bodies") item_bytes =
  { Plan.name; intent = Plan.Read; item_bytes }

let spec ?(kernel = "t") ?(resident = 0) ?(tile = Plan.Auto)
    ?(slots = Plan.default_slots) buffers =
  { Plan.kernel; buffers; resident_bytes = resident; tile; slots }

let derive ?(n_items = 100) s = Plan.derive s ~cfg ~n_items

(* --- plan derivation edge cases ---------------------------------------- *)

let test_tight_tile () =
  (* working set smaller than one tile: Auto caps the tile at the work
     list, so the whole set rides in a single tight tile *)
  match derive ~n_items:5 (spec [ buf 32 ]) with
  | Error e -> Alcotest.failf "unexpected error: %s" (Plan.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "tile = work list" 5 p.Plan.tile_items;
      Alcotest.(check int) "one tile" 1 p.Plan.n_tiles;
      Alcotest.(check int) "no remainder" 0 p.Plan.remainder;
      let t = Plan.tile p 0 in
      Alcotest.(check int) "tile start" 0 t.Plan.start;
      Alcotest.(check int) "tile items" 5 t.Plan.items

let test_remainder_tile () =
  match derive ~n_items:23 (spec ~tile:(Plan.Items 7) [ buf 8 ]) with
  | Error e -> Alcotest.failf "unexpected error: %s" (Plan.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "tiles" 4 p.Plan.n_tiles;
      Alcotest.(check int) "remainder" 2 p.Plan.remainder;
      let last = Plan.tile p 3 in
      Alcotest.(check int) "last start" 21 last.Plan.start;
      Alcotest.(check int) "last items" 2 last.Plan.items;
      (* the tiles cover [0, n) exactly, in order *)
      let covered = ref 0 in
      for i = 0 to p.Plan.n_tiles - 1 do
        let t = Plan.tile p i in
        Alcotest.(check int) "contiguous" !covered t.Plan.start;
        covered := !covered + t.Plan.items
      done;
      Alcotest.(check int) "full cover" 23 !covered

let test_items_overflow () =
  (* a fixed tile that cannot fit [slots] copies in the budget is a
     structured overflow carrying the audited numbers *)
  let k = (budget / (2 * 32)) + 1 in
  match derive (spec ~tile:(Plan.Items k) ~slots:2 [ buf 32 ]) with
  | Ok _ -> Alcotest.fail "oversized fixed tile must not derive"
  | Error (Plan.Ldm_overflow o) ->
      Alcotest.(check string) "kernel" "t" o.kernel;
      Alcotest.(check int) "needed" (2 * k * 32) o.needed;
      Alcotest.(check int) "budget" budget o.budget;
      Alcotest.(check int) "tile attempted" k o.tile_items
  | Error e -> Alcotest.failf "wrong error: %s" (Plan.error_to_string e)

let test_auto_overflow () =
  (* Auto with a resident block that eats the whole budget cannot fit
     even a one-item tile *)
  match derive (spec ~resident:budget [ buf 8 ]) with
  | Ok _ -> Alcotest.fail "no room for one item: must not derive"
  | Error (Plan.Ldm_overflow o) ->
      Alcotest.(check int) "smallest tile attempted" 1 o.tile_items;
      Alcotest.(check int) "needed" ((2 * 8) + budget) o.needed
  | Error e -> Alcotest.failf "wrong error: %s" (Plan.error_to_string e)

let test_bad_specs () =
  let is_bad name = function
    | Error (Plan.Bad_spec _) -> ()
    | Ok _ -> Alcotest.failf "%s: derived" name
    | Error e -> Alcotest.failf "%s: wrong error %s" name (Plan.error_to_string e)
  in
  is_bad "slots" (derive (spec ~slots:0 [ buf 8 ]));
  is_bad "negative items" (derive ~n_items:(-1) (spec [ buf 8 ]));
  is_bad "no buffers" (derive (spec []));
  is_bad "zero-byte buffer" (derive (spec [ buf 0 ]));
  is_bad "zero tile" (derive (spec ~tile:(Plan.Items 0) [ buf 8 ]));
  is_bad "negative resident" (derive (spec ~resident:(-4) [ buf 8 ]))

let test_derive_exn () =
  Alcotest.check_raises "derive_exn raises the structured error"
    (Plan.Plan_error
       (Plan.Bad_spec { kernel = "t"; reason = "no streamed buffers declared" }))
    (fun () -> ignore (Plan.derive_exn (spec []) ~cfg ~n_items:4))

let test_reserve () =
  match derive ~n_items:10_000 (spec ~resident:256 [ buf 16; buf 8 ]) with
  | Error e -> Alcotest.failf "unexpected error: %s" (Plan.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "item bytes summed" 24 p.Plan.item_bytes;
      Alcotest.(check int) "recorded = slots x tile + resident"
        ((2 * p.Plan.tile_bytes) + 256)
        (Plan.reserve p ~recorded:true);
      Alcotest.(check int) "serial = one tile + resident"
        (p.Plan.tile_bytes + 256)
        (Plan.reserve p ~recorded:false);
      Alcotest.(check bool) "recorded reserve fits the budget" true
        (Plan.reserve p ~recorded:true <= budget)

let test_tile_bounds () =
  match derive ~n_items:10 (spec [ buf 8 ]) with
  | Error e -> Alcotest.failf "unexpected error: %s" (Plan.error_to_string e)
  | Ok p ->
      let oob i = try ignore (Plan.tile p i); false with Invalid_argument _ -> true in
      Alcotest.(check bool) "negative index" true (oob (-1));
      Alcotest.(check bool) "past the end" true (oob p.Plan.n_tiles)

let qtiles_cover =
  QCheck.Test.make ~name:"plan: tiles cover the work list, within budget"
    ~count:300
    QCheck.(
      quad (int_range 1 128) (int_range 1 4) (int_range 0 1000)
        (int_range 0 4096))
    (fun (item_bytes, slots, n_items, resident) ->
      match
        Plan.derive
          (spec ~resident ~slots [ buf item_bytes ])
          ~cfg ~n_items
      with
      | Error (Plan.Ldm_overflow _) -> true (* structured refusal is fine *)
      | Error (Plan.Bad_spec _) -> false
      | Ok p ->
          let covered = ref 0 and ok = ref true in
          for i = 0 to p.Plan.n_tiles - 1 do
            let t = Plan.tile p i in
            if t.Plan.start <> !covered || t.Plan.items < 1 then ok := false;
            covered := !covered + t.Plan.items
          done;
          !ok
          && (!covered = n_items || (n_items = 0 && p.Plan.n_tiles = 0))
          && Plan.reserve p ~recorded:true <= budget)

let qpartition_cover =
  QCheck.Test.make ~name:"plan: CPE partition covers the tiles in order"
    ~count:300
    QCheck.(pair (int_range 1 64) (int_range 0 2000))
    (fun (n_cpes, n_items) ->
      match Plan.derive (spec [ buf 8 ]) ~cfg ~n_items with
      | Error _ -> false
      | Ok p ->
          let covered = ref 0 and ok = ref true in
          for id = 0 to n_cpes - 1 do
            let lo, hi = Swgmx.Kernel_common.partition p.Plan.n_tiles n_cpes id in
            if lo <> min !covered p.Plan.n_tiles || hi < lo then ok := false;
            covered := max !covered hi
          done;
          !ok && !covered = p.Plan.n_tiles)

(* --- plan: what moves the tiling ---------------------------------------- *)

let test_auto_follows_platform_ldm () =
  (* Auto sizes the tile from the platform's budget: the same working
     set gets exactly (budget - resident) / (slots x item bytes) items
     per tile on each machine, so the larger LDM gets the larger tile *)
  let s = spec ~resident:512 [ buf 96 ] in
  let tile_on (p : Swarch.Config.t) =
    let t = Plan.derive_exn s ~cfg:p ~n_items:1_000_000 in
    Alcotest.(check int)
      (p.Swarch.Config.name ^ " tile")
      ((p.Swarch.Config.ldm_bytes - 512) / (Plan.default_slots * 96))
      t.Plan.tile_items;
    Alcotest.(check int)
      (p.Swarch.Config.name ^ " budget")
      p.Swarch.Config.ldm_bytes t.Plan.ldm_budget;
    t.Plan.tile_items
  in
  let small = tile_on Swarch.Platform.sw26010
  and large = tile_on Swarch.Platform.sw26010_pro in
  Alcotest.(check bool) "larger LDM, larger tile" true (large > small)

let test_intent_keeps_footprint () =
  (* the intent declares the DMA direction only: Read, Write and
     Accumulate buffers of one size derive the same plan *)
  let plan_for intent =
    Plan.derive_exn
      (spec ~resident:64 [ { Plan.name = "b"; intent; item_bytes = 40 } ])
      ~cfg ~n_items:5000
  in
  let r = plan_for Plan.Read in
  List.iter
    (fun (name, intent) ->
      let p = plan_for intent in
      Alcotest.(check int) (name ^ " tile") r.Plan.tile_items p.Plan.tile_items;
      Alcotest.(check int) (name ^ " tiles") r.Plan.n_tiles p.Plan.n_tiles;
      Alcotest.(check int) (name ^ " tile bytes") r.Plan.tile_bytes
        p.Plan.tile_bytes;
      Alcotest.(check int)
        (name ^ " reserve")
        (Plan.reserve r ~recorded:true)
        (Plan.reserve p ~recorded:true))
    [ ("write", Plan.Write); ("accumulate", Plan.Accumulate) ]

let test_plan_printers () =
  let p = Plan.derive_exn (spec ~tile:(Plan.Items 7) [ buf 8 ]) ~cfg ~n_items:23 in
  Alcotest.(check string) "pp"
    (Printf.sprintf
       "plan t: 23 items, 7-item tiles x 4 (remainder 2), 56 B/tile x 2 \
        slots + 0 B resident <= %d B LDM"
       budget)
    (Fmt.str "%a" Plan.pp p);
  let e =
    Plan.Ldm_overflow { kernel = "k"; needed = 900; budget = 800; tile_items = 3 }
  in
  Alcotest.(check string) "overflow message"
    "offload plan \"k\": working set needs 900 B of LDM for a 3-item tile \
     but the platform budget is 800 B"
    (Plan.error_to_string e);
  Alcotest.(check string) "registered printer" (Plan.error_to_string e)
    (Printexc.to_string (Plan.Plan_error e));
  Alcotest.(check string) "bad spec message" "offload plan \"k\": slots < 1"
    (Plan.error_to_string (Plan.Bad_spec { kernel = "k"; reason = "slots < 1" }))

(* --- the offload walks -------------------------------------------------- *)

(* The MD kernels reach Offload through Kernel_cpe, Nsearch_cpe and
   Reduction; these cases drive [run], [block] and [strided] directly
   with a synthetic kernel, so Offload's own contract (which tiles
   each CPE walks, in which order, with which LDM reservation, what it
   records and traces, and how it reports faults) is pinned apart from
   any physics. *)

module Offload = Swoffload.Offload

(* every test leaves the process back on the serial path *)
let with_domains d f =
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set 1) f

let with_trace f =
  Swtrace.Trace.enable ();
  Fun.protect ~finally:(fun () -> Swtrace.Trace.disable ()) f

let bits = Int64.bits_of_float

(* What the synthetic kernel saw, one slot per CPE.  Offload shards
   the mesh by CPE id, so no slot is written from two domains. *)
type probe = {
  setups : int array;
  teardowns : int array;
  ldm_at_setup : int array;
  calls : (char * int) list array;  (** ('f' | 'c', global tile), newest first *)
  sums : float array;
}

let probe n =
  {
    setups = Array.make n 0;
    teardowns = Array.make n 0;
    ldm_at_setup = Array.make n (-1);
    calls = Array.make n [];
    sums = Array.make n 0.0;
  }

(* [fetch] charges one DMA get of the tile's streamed bytes, [compute]
   one flop per item and folds sqrt of each item index into its CPE's
   sum; both log the global tile index they ran.  [hook] runs first in
   [compute], for tests that inject a failure. *)
let probe_kernel ?(phase = "probe") ?(hook = fun _ _ -> ()) plan n_cpes pr =
  let id (env : Offload.env) = env.Offload.cpe.Swarch.Cpe.id in
  let tile_of (env : Offload.env) i = Plan.tile plan (env.Offload.lo + i) in
  {
    Offload.plan;
    phase;
    partition = Swgmx.Kernel_common.partition plan.Plan.n_tiles n_cpes;
    setup =
      (fun env ->
        let c = id env in
        pr.setups.(c) <- pr.setups.(c) + 1;
        pr.ldm_at_setup.(c) <- Swarch.Ldm.used env.Offload.cpe.Swarch.Cpe.ldm;
        env);
    fetch =
      (fun env i ->
        let t = tile_of env i in
        Swarch.Dma.get env.Offload.cfg env.Offload.cpe.Swarch.Cpe.cost
          ~bytes:(t.Plan.items * plan.Plan.item_bytes);
        pr.calls.(id env) <- ('f', t.Plan.index) :: pr.calls.(id env));
    compute =
      (fun env i ->
        let t = tile_of env i in
        let c = id env in
        hook env t;
        Swarch.Cost.flops env.Offload.cpe.Swarch.Cpe.cost
          (float_of_int t.Plan.items);
        for k = t.Plan.start to t.Plan.start + t.Plan.items - 1 do
          pr.sums.(c) <- pr.sums.(c) +. sqrt (float_of_int k)
        done;
        pr.calls.(c) <- ('c', t.Plan.index) :: pr.calls.(c));
    teardown = (fun env -> pr.teardowns.(id env) <- pr.teardowns.(id env) + 1);
  }

(* 1000 items in 3-item tiles: 334 tiles (the last one a 1-item
   remainder), 6 per CPE over the first 56 CPEs, the rest idle *)
let probe_plan ?(n_items = 1000) ?(tile = Plan.Items 3) () =
  Plan.derive_exn
    (spec ~kernel:"probe" ~resident:128 ~tile
       [ buf 24; { Plan.name = "out"; intent = Plan.Write; item_bytes = 8 } ])
    ~cfg ~n_items

let run_probe ?sched ?(reference = false) plan =
  let cg = Swarch.Core_group.create cfg in
  let n_cpes = Array.length cg.Swarch.Core_group.cpes in
  let pr = probe n_cpes in
  let k = probe_kernel plan n_cpes pr in
  if reference then Offload.run_reference ~cg k else Offload.run ?sched ~cg k;
  (pr, cg)

let cost_bits (c : Swarch.Cost.t) =
  [
    bits c.Swarch.Cost.scalar_flops;
    bits c.Swarch.Cost.dma_time_s;
    bits c.Swarch.Cost.dma_bytes;
    bits c.Swarch.Cost.dma_transactions;
  ]

let check_same_run what (pa, (ca : Swarch.Core_group.t)) (pb, cb) =
  Array.iteri
    (fun c (cpe : Swarch.Cpe.t) ->
      let other = cb.Swarch.Core_group.cpes.(c) in
      Alcotest.(check (list int64))
        (Printf.sprintf "%s: CPE %d cost" what c)
        (cost_bits cpe.Swarch.Cpe.cost)
        (cost_bits other.Swarch.Cpe.cost);
      Alcotest.(check int64)
        (Printf.sprintf "%s: CPE %d sum" what c)
        (bits pa.sums.(c)) (bits pb.sums.(c));
      Alcotest.(check (list (pair char int)))
        (Printf.sprintf "%s: CPE %d walk" what c)
        pa.calls.(c) pb.calls.(c))
    ca.Swarch.Core_group.cpes;
  Alcotest.(check int64) (what ^ ": elapsed")
    (bits (Swarch.Core_group.elapsed ca))
    (bits (Swarch.Core_group.elapsed cb))

let test_run_walks_tiles () =
  let plan = probe_plan () in
  let pr, cg = run_probe plan in
  let n_cpes = Array.length cg.Swarch.Core_group.cpes in
  let computed = Array.make plan.Plan.n_tiles 0 in
  let busy = ref 0 and multi = ref 0 in
  for c = 0 to n_cpes - 1 do
    let lo, hi = Swgmx.Kernel_common.partition plan.Plan.n_tiles n_cpes c in
    let expect =
      List.concat
        (List.init (hi - lo) (fun i -> [ ('f', lo + i); ('c', lo + i) ]))
    in
    Alcotest.(check (list (pair char int)))
      (Printf.sprintf "CPE %d fetches then computes its tiles in order" c)
      expect (List.rev pr.calls.(c));
    let n = if lo < hi then 1 else 0 in
    Alcotest.(check int) (Printf.sprintf "CPE %d setups" c) n pr.setups.(c);
    Alcotest.(check int) (Printf.sprintf "CPE %d teardowns" c) n
      pr.teardowns.(c);
    if lo < hi then incr busy;
    if hi - lo > 1 then incr multi;
    List.iter
      (fun (stage, t) -> if stage = 'c' then computed.(t) <- computed.(t) + 1)
      pr.calls.(c)
  done;
  Array.iteri
    (fun t k -> Alcotest.(check int) (Printf.sprintf "tile %d once" t) 1 k)
    computed;
  Alcotest.(check bool) "some CPEs idle, some walk several tiles" true
    (!busy < n_cpes && !multi > 1);
  (* every item, the remainder tile's included, was folded exactly once *)
  let expect = ref 0.0 in
  for k = 0 to plan.Plan.n_items - 1 do
    expect := !expect +. sqrt (float_of_int k)
  done;
  let got = Array.fold_left ( +. ) 0.0 pr.sums in
  Alcotest.(check (float 1e-9)) "items folded once" !expect got;
  Alcotest.(check (float 0.0)) "DMA bytes = streamed bytes"
    (float_of_int (plan.Plan.n_items * plan.Plan.item_bytes))
    (Swarch.Core_group.total_cost cg).Swarch.Cost.dma_bytes

let test_run_matches_reference () =
  (* Auto tiles this time: Offload charges nothing of its own, so
     physics and every cost counter equal the bare serial walk *)
  let plan = probe_plan ~n_items:20_000 ~tile:Plan.Auto () in
  Alcotest.(check bool) "several Auto tiles" true (plan.Plan.n_tiles > 1);
  check_same_run "run vs run_reference" (run_probe plan)
    (run_probe ~reference:true plan)

let test_run_domain_invariant () =
  let plan = probe_plan () in
  let serial = run_probe plan in
  List.iter
    (fun d ->
      check_same_run (Printf.sprintf "%d domains" d) serial
        (with_domains d (fun () -> run_probe plan)))
    [ 2; 4; 7 ]

let test_run_idle_cpes_untouched () =
  (* five one-item tiles on the mesh: only CPEs 0-4 have work *)
  let plan = probe_plan ~n_items:5 ~tile:(Plan.Items 1) () in
  let pr, cg = run_probe plan in
  Array.iter
    (fun (cpe : Swarch.Cpe.t) ->
      let c = cpe.Swarch.Cpe.id in
      let busy = c < 5 in
      Alcotest.(check int) (Printf.sprintf "CPE %d setups" c)
        (if busy then 1 else 0) pr.setups.(c);
      Alcotest.(check int)
        (Printf.sprintf "CPE %d LDM high water" c)
        (if busy then Plan.reserve plan ~recorded:false else 0)
        (Swarch.Ldm.high_water cpe.Swarch.Cpe.ldm);
      if not busy then
        Alcotest.(check (float 0.0))
          (Printf.sprintf "CPE %d charged nothing" c)
          0.0
          (Swarch.Cost.cpe_compute_time cfg cpe.Swarch.Cpe.cost
          +. cpe.Swarch.Cpe.cost.Swarch.Cost.dma_bytes))
    cg.Swarch.Core_group.cpes

let test_run_ldm_reservation () =
  (* a recorded run reserves the plan's slots, a serial run one tile;
     either way the slice's LDM is released when it ends *)
  let plan = probe_plan () in
  List.iter
    (fun recorded ->
      let sched = if recorded then Some (Swsched.Recorder.create cfg) else None in
      let pr, cg = run_probe ?sched plan in
      let want = Plan.reserve plan ~recorded in
      Array.iter
        (fun (cpe : Swarch.Cpe.t) ->
          let c = cpe.Swarch.Cpe.id in
          if pr.setups.(c) > 0 then
            Alcotest.(check int)
              (Printf.sprintf "recorded=%b CPE %d reserved at setup" recorded c)
              want pr.ldm_at_setup.(c);
          Alcotest.(check int)
            (Printf.sprintf "recorded=%b CPE %d released" recorded c)
            0
            (Swarch.Ldm.used cpe.Swarch.Cpe.ldm))
        cg.Swarch.Core_group.cpes)
    [ false; true ];
  Alcotest.(check bool) "slots make the recorded reserve larger" true
    (Plan.reserve plan ~recorded:true > Plan.reserve plan ~recorded:false)

let test_run_recorded_program () =
  (* one task per busy CPE in id order, at the plan's slot depth, one
     item per tile whose fetch is a prefetch of the tile's bytes; the
     program is the same at every domain count *)
  let plan = probe_plan () in
  let record () =
    let r = Swsched.Recorder.create cfg in
    let pr, cg = run_probe ~sched:r plan in
    (Swsched.Recorder.phases r, pr, cg)
  in
  let phases, pr, cg = record () in
  let n_cpes = Array.length cg.Swarch.Core_group.cpes in
  (match phases with
  | [ { Swsched.Recorder.name = "main"; tasks } ] ->
      let busy =
        List.filter (fun c -> pr.setups.(c) > 0) (List.init n_cpes Fun.id)
      in
      Alcotest.(check (list int)) "task per busy CPE, in id order" busy
        (List.map (fun (t : Swsched.Recorder.task) -> t.Swsched.Recorder.id) tasks);
      List.iter
        (fun (t : Swsched.Recorder.task) ->
          let lo, hi = Swgmx.Kernel_common.partition plan.Plan.n_tiles n_cpes t.Swsched.Recorder.id in
          Alcotest.(check int) "slot depth" plan.Plan.spec.Plan.slots
            t.Swsched.Recorder.buffers;
          Alcotest.(check (list (list int)))
            (Printf.sprintf "CPE %d prefetches" t.Swsched.Recorder.id)
            (List.init (hi - lo) (fun i ->
                 [ (Plan.tile plan (lo + i)).Plan.items * plan.Plan.item_bytes ]))
            (List.map
               (fun (it : Swsched.Recorder.item) ->
                 List.map
                   (fun (x : Swsched.Recorder.xfer) -> x.Swsched.Recorder.bytes)
                   it.Swsched.Recorder.prefetch)
               t.Swsched.Recorder.items))
        tasks
  | _ -> Alcotest.fail "expected the single main phase");
  List.iter
    (fun d ->
      let phases', _, _ = with_domains d record in
      Alcotest.(check bool)
        (Printf.sprintf "program identical at %d domains" d)
        true
        (compare phases phases' = 0))
    [ 2; 4 ]

let test_run_trace_spans () =
  let plan = probe_plan () in
  let plain, _ = run_probe plan in
  let traced, _ = with_trace (fun () -> run_probe plan) in
  Array.iteri
    (fun c s ->
      Alcotest.(check int64)
        (Printf.sprintf "CPE %d: tracing changes nothing" c)
        (bits s) (bits traced.sums.(c)))
    plain.sums;
  let events = Swtrace.Trace.events () in
  let spans cat =
    List.filter
      (fun (e : Swtrace.Event.t) ->
        e.Swtrace.Event.kind = Swtrace.Event.Span && e.Swtrace.Event.cat = cat)
      events
  in
  let slices = spans "offload" and tiles = spans "offload-tile" in
  let dma name =
    List.length
      (List.filter
         (fun (e : Swtrace.Event.t) -> e.Swtrace.Event.name = name)
         (spans "offload-dma"))
  in
  let busy = Array.fold_left (fun a n -> a + n) 0 traced.setups in
  Alcotest.(check int) "one offload span per busy CPE" busy (List.length slices);
  Alcotest.(check int) "one tile span per tile" plan.Plan.n_tiles
    (List.length tiles);
  Alcotest.(check int) "one dma-issue per tile" plan.Plan.n_tiles
    (dma "dma-issue");
  Alcotest.(check int) "one dma-retire per tile" plan.Plan.n_tiles
    (dma "dma-retire");
  List.iter
    (fun (t : Swtrace.Event.t) ->
      Alcotest.(check string) "tile span name" "tile:probe" t.Swtrace.Event.name;
      let owner =
        List.filter
          (fun (s : Swtrace.Event.t) -> s.Swtrace.Event.track = t.Swtrace.Event.track)
          slices
      in
      match owner with
      | [ s ] ->
          Alcotest.(check string) "slice span name" "offload:probe"
            s.Swtrace.Event.name;
          let eps = 1e-15 in
          Alcotest.(check bool) "tile nests in its slice" true
            (t.Swtrace.Event.t >= s.Swtrace.Event.t -. eps
            && Swtrace.Event.end_time t <= Swtrace.Event.end_time s +. eps)
      | l ->
          Alcotest.failf "tile on a track with %d slice spans" (List.length l))
    tiles

let test_run_fault_names_phase_and_cpe () =
  (* a failure inside a slice comes out as a structured fault naming
     the kernel's phase and the CPE, at any domain count *)
  let plan = probe_plan () in
  let run () =
    let cg = Swarch.Core_group.create cfg in
    let n_cpes = Array.length cg.Swarch.Core_group.cpes in
    let hook (env : Offload.env) (t : Plan.tile) =
      if env.Offload.cpe.Swarch.Cpe.id = 40 && t.Plan.index = env.Offload.lo + 2
      then invalid_arg "probe refused tile"
    in
    Offload.run ~cg (probe_kernel ~phase:"probe-phase" ~hook plan n_cpes (probe n_cpes))
  in
  List.iter
    (fun d ->
      match with_domains d run with
      | () -> Alcotest.failf "%d domains: the failure was swallowed" d
      | exception Swfault.Error.Fault f ->
          Alcotest.(check string) "phase" "probe-phase" f.Swfault.Error.phase;
          Alcotest.(check (option int)) "cpe" (Some 40) f.Swfault.Error.cpe;
          Alcotest.(check string) "detail" "invalid argument: probe refused tile"
            f.Swfault.Error.detail)
    [ 1; 4 ]

let test_scratch_within_budget () =
  (* [scratch] claims LDM on top of the plan's reservation; a claim the
     budget cannot hold is an out-of-LDM fault for that CPE *)
  let plan = probe_plan () in
  let seen = Array.make cfg.Swarch.Config.cpe_count (-1) in
  let run extra =
    let cg = Swarch.Core_group.create cfg in
    let n_cpes = Array.length cg.Swarch.Core_group.cpes in
    let k = probe_kernel plan n_cpes (probe n_cpes) in
    let k =
      {
        k with
        Offload.setup =
          (fun env ->
            Offload.scratch env extra;
            seen.(env.Offload.cpe.Swarch.Cpe.id) <-
              Swarch.Ldm.used env.Offload.cpe.Swarch.Cpe.ldm;
            k.Offload.setup env);
      }
    in
    Offload.run ~cg k;
    cg
  in
  let cg = run 1024 in
  let reserve = Plan.reserve plan ~recorded:false in
  Alcotest.(check int) "reserve + scratch" (reserve + 1024) seen.(0);
  Array.iter
    (fun (cpe : Swarch.Cpe.t) ->
      Alcotest.(check int) "scratch released with the slice" 0
        (Swarch.Ldm.used cpe.Swarch.Cpe.ldm))
    cg.Swarch.Core_group.cpes;
  match run (budget - reserve + 1) with
  | _ -> Alcotest.fail "over-budget scratch claim succeeded"
  | exception Swfault.Error.Fault f ->
      Alcotest.(check string) "phase" "probe" f.Swfault.Error.phase;
      Alcotest.(check (option int)) "first busy CPE" (Some 0) f.Swfault.Error.cpe;
      Alcotest.(check string) "detail"
        (Printf.sprintf "out of LDM (requested %d bytes, %d available)"
           (budget - reserve + 1) (budget - reserve))
        f.Swfault.Error.detail

let test_block_slices () =
  (* [block] hands each CPE with work exactly one slice of its range,
     releases whatever the slice claimed, and does so identically at
     every domain count *)
  let partition id = if id mod 3 = 0 then (id * 10, (id * 10) + 7) else (0, 0) in
  let walk () =
    let cg = Swarch.Core_group.create cfg in
    let n_cpes = Array.length cg.Swarch.Core_group.cpes in
    let got = Array.make n_cpes [] in
    Offload.block ~cg ~phase:"probe-block" ~partition (fun env ->
        let c = env.Offload.cpe.Swarch.Cpe.id in
        Offload.scratch env 2048;
        Swarch.Dma.get env.Offload.cfg env.Offload.cpe.Swarch.Cpe.cost
          ~bytes:(64 * (env.Offload.hi - env.Offload.lo));
        got.(c) <- (env.Offload.lo, env.Offload.hi) :: got.(c));
    (got, cg)
  in
  let got, cg = walk () in
  Array.iteri
    (fun c slices ->
      let lo, hi = partition c in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "CPE %d slices" c)
        (if lo < hi then [ (lo, hi) ] else [])
        slices;
      let ldm = cg.Swarch.Core_group.cpes.(c).Swarch.Cpe.ldm in
      Alcotest.(check int) (Printf.sprintf "CPE %d released" c) 0
        (Swarch.Ldm.used ldm);
      Alcotest.(check int)
        (Printf.sprintf "CPE %d high water" c)
        (if lo < hi then 2048 else 0)
        (Swarch.Ldm.high_water ldm))
    got;
  List.iter
    (fun d ->
      let got', cg' = with_domains d walk in
      Alcotest.(check bool) (Printf.sprintf "slices at %d domains" d) true
        (got = got');
      Array.iteri
        (fun c (cpe : Swarch.Cpe.t) ->
          Alcotest.(check (list int64))
            (Printf.sprintf "%d domains: CPE %d cost" d c)
            (cost_bits cpe.Swarch.Cpe.cost)
            (cost_bits cg'.Swarch.Core_group.cpes.(c).Swarch.Cpe.cost))
        cg.Swarch.Core_group.cpes)
    [ 2; 4 ]

let test_block_fault () =
  let cg = Swarch.Core_group.create cfg in
  match
    Offload.block ~cg ~phase:"probe-block"
      ~partition:(fun id -> (id, id + 1))
      (fun env ->
        if env.Offload.cpe.Swarch.Cpe.id = 17 then
          Offload.scratch env (budget + 1))
  with
  | () -> Alcotest.fail "over-budget claim succeeded"
  | exception Swfault.Error.Fault f ->
      Alcotest.(check string) "phase" "probe-block" f.Swfault.Error.phase;
      Alcotest.(check (option int)) "cpe" (Some 17) f.Swfault.Error.cpe

(* owner slots 0..2 on CPEs 5, 9 and 2: slot s walks items s, s+3, ... *)
let owners = [| 5; 9; 2 |]

let strided_walk ?sched ?(reference = false) ~n_items () =
  let cg = Swarch.Core_group.create cfg in
  let init () = ref [] in
  let item acc (owner : Swarch.Cpe.t) i =
    Swarch.Dma.get cfg owner.Swarch.Cpe.cost ~bytes:(8 * (i + 1));
    Swarch.Cost.flops owner.Swarch.Cpe.cost 3.0;
    acc := (owner.Swarch.Cpe.id, i) :: !acc
  in
  let accs =
    if reference then
      Offload.strided_reference ~cg ~owners ~n_items ~init ~item ()
    else Offload.strided ?sched ~cg ~name:"probe" ~owners ~n_items ~init ~item ()
  in
  (List.concat_map (fun a -> List.rev !a) (Array.to_list accs), accs, cg)

let test_strided_residue_classes () =
  let walked, accs, _ = strided_walk ~n_items:20 () in
  Alcotest.(check int) "one accumulator on one domain" 1 (Array.length accs);
  let expect =
    List.concat
      (List.init (Array.length owners) (fun slot ->
           List.filter_map
             (fun i ->
               if i mod Array.length owners = slot then Some (owners.(slot), i)
               else None)
             (List.init 20 Fun.id)))
  in
  Alcotest.(check (list (pair int int))) "owner slots in order, items by stride"
    expect walked

let test_strided_matches_reference () =
  (* shard accumulators, merged in shard order, replay the reference
     walk, and the owners are charged the same at every domain count *)
  let ref_walk, _, ref_cg = strided_walk ~reference:true ~n_items:31 () in
  List.iter
    (fun d ->
      let walked, accs, cg =
        with_domains d (fun () -> strided_walk ~n_items:31 ())
      in
      Alcotest.(check int)
        (Printf.sprintf "%d domains: shard count" d)
        (min d (Array.length owners))
        (Array.length accs);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%d domains: merged walk" d)
        ref_walk walked;
      Array.iteri
        (fun c (cpe : Swarch.Cpe.t) ->
          Alcotest.(check (list int64))
            (Printf.sprintf "%d domains: CPE %d cost" d c)
            (cost_bits ref_cg.Swarch.Core_group.cpes.(c).Swarch.Cpe.cost)
            (cost_bits cpe.Swarch.Cpe.cost))
        cg.Swarch.Core_group.cpes)
    [ 1; 2; 4 ]

let test_strided_records_and_traces () =
  (* recorded: one task per owner, in owner-slot order, one Get per
     item; traced: one [offload:] span per owner on its CPE track *)
  let r = Swsched.Recorder.create cfg in
  let _ = with_trace (fun () -> strided_walk ~sched:r ~n_items:20 ()) in
  (match Swsched.Recorder.phases r with
  | [ { Swsched.Recorder.tasks; _ } ] ->
      Alcotest.(check (list int)) "task per owner" (Array.to_list owners)
        (List.map (fun (t : Swsched.Recorder.task) -> t.Swsched.Recorder.id) tasks)
  | _ -> Alcotest.fail "expected the single main phase");
  let expect_bytes = ref 0 in
  for i = 0 to 19 do
    expect_bytes := !expect_bytes + (8 * (i + 1))
  done;
  Alcotest.(check (float 0.0)) "recorded DMA bytes"
    (float_of_int !expect_bytes)
    (Swsched.Recorder.total_dma_bytes r);
  let spans =
    List.filter
      (fun (e : Swtrace.Event.t) ->
        e.Swtrace.Event.kind = Swtrace.Event.Span
        && e.Swtrace.Event.cat = "offload")
      (Swtrace.Trace.events ())
  in
  Alcotest.(check (list string)) "one span per owner, on its track"
    (List.map
       (fun id -> Swtrace.Track.name (Swtrace.Track.Cpe id))
       (List.sort compare (Array.to_list owners)))
    (List.sort compare
       (List.map
          (fun (e : Swtrace.Event.t) -> Swtrace.Track.name e.Swtrace.Event.track)
          spans));
  List.iter
    (fun (e : Swtrace.Event.t) ->
      Alcotest.(check string) "span name" "offload:probe" e.Swtrace.Event.name;
      Alcotest.(check (float 0.0)) "stride arg"
        (float_of_int (Array.length owners))
        (Swtrace.Event.arg e "stride"))
    spans

let qc t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "swoffload plan",
      [
        Alcotest.test_case "auto: single tight tile" `Quick test_tight_tile;
        Alcotest.test_case "remainder tile" `Quick test_remainder_tile;
        Alcotest.test_case "fixed tile overflow is structured" `Quick
          test_items_overflow;
        Alcotest.test_case "auto overflow is structured" `Quick
          test_auto_overflow;
        Alcotest.test_case "bad specs rejected" `Quick test_bad_specs;
        Alcotest.test_case "derive_exn raises Plan_error" `Quick test_derive_exn;
        Alcotest.test_case "reserve arithmetic" `Quick test_reserve;
        Alcotest.test_case "tile index bounds" `Quick test_tile_bounds;
        qc qtiles_cover;
        qc qpartition_cover;
        Alcotest.test_case "auto tile follows the platform's LDM" `Quick
          test_auto_follows_platform_ldm;
        Alcotest.test_case "intent keeps the footprint" `Quick
          test_intent_keeps_footprint;
        Alcotest.test_case "pp and error printers" `Quick test_plan_printers;
      ] );
    ( "swoffload walks",
      [
        Alcotest.test_case "run: each tile once, in slice order" `Quick
          test_run_walks_tiles;
        Alcotest.test_case "run = run_reference" `Quick
          test_run_matches_reference;
        Alcotest.test_case "run: bit-identical at 1/2/4/7 domains" `Quick
          test_run_domain_invariant;
        Alcotest.test_case "run: idle CPEs untouched" `Quick
          test_run_idle_cpes_untouched;
        Alcotest.test_case "run: LDM reserved and released" `Quick
          test_run_ldm_reservation;
        Alcotest.test_case "run: recorded program" `Quick
          test_run_recorded_program;
        Alcotest.test_case "run: slice, tile and DMA spans" `Quick
          test_run_trace_spans;
        Alcotest.test_case "run: fault names phase and CPE" `Quick
          test_run_fault_names_phase_and_cpe;
        Alcotest.test_case "scratch: claimed within the budget" `Quick
          test_scratch_within_budget;
        Alcotest.test_case "block: one slice per CPE" `Quick test_block_slices;
        Alcotest.test_case "block: fault names phase and CPE" `Quick
          test_block_fault;
        Alcotest.test_case "strided: owners walk residue classes" `Quick
          test_strided_residue_classes;
        Alcotest.test_case "strided = strided_reference" `Quick
          test_strided_matches_reference;
        Alcotest.test_case "strided: recorded tasks and owner spans" `Quick
          test_strided_records_and_traces;
      ] );
  ]
