(** The four benchmark workloads.

    Each workload has a set-up and an op.  The op is one call a user of
    the library makes; its outputs come back as (key, value) pairs with
    floats in hexadecimal, so the harness can compare them bit for bit
    against the pinned goldens or against the first op of the run.  The
    mirror makes the same public calls as the op, in the same order,
    each inside a {!Layers} span, and must reproduce the op's outputs:
    otherwise the per-layer numbers would describe a different program. *)

module E = Swgmx.Engine
module K = Swgmx.Kernel_common
module Md = Mdcore
module L = Layers

type outputs = (string * string) list

let hex x = Printf.sprintf "%h" x
let int n = string_of_int n

type instance = {
  op : int -> outputs * float;
      (** [op i] runs op number [i]; returns its outputs and the work
          units it completed *)
  mirror : int -> outputs;  (** op [i] again, one span per layer call *)
  diagnostic : unit -> unit;
      (** extra layer timings after a mirror, outside the op *)
  after : unit -> outputs;
      (** outputs checked once after timing ends, outside every op *)
}

type t = {
  name : string;
  seeded : bool;  (** false when the op ignores the workload seed *)
  work_unit : string;
  setup : seed:int -> out_dir:string -> instance;
}

let cfg () = Swbench.Common.cfg ()

let no_diagnostic () = ()
let no_after () = []

(* simulated cost of the kernel the group just ran, counted per op *)
let count_kernel_cost (cg : Swarch.Core_group.t) =
  let total = Swarch.Core_group.total_cost cg in
  let c = cg.Swarch.Core_group.cfg in
  L.count "swarch.flops"
    (total.Swarch.Cost.scalar_flops
    +. (float_of_int c.Swarch.Config.simd_lanes *. total.Swarch.Cost.simd_ops)
    +. cg.Swarch.Core_group.mpe.Swarch.Mpe.cost.Swarch.Cost.mpe_flops);
  L.count "swarch.dma_bytes" total.Swarch.Cost.dma_bytes

(* ------------------------------------------------------------------ *)
(* price24k: one priced 24k-atom step, the Table-1 / Figure-10 path *)

let total_atoms = 24000
let n_cg = 8

let measure () =
  E.measure ~cfg:(cfg ()) ~version:E.V_other ~total_atoms ~n_cg ()

let force_elapsed (m : E.measurement) =
  (List.find
     (fun (p : Swstep.Plan.priced) -> p.Swstep.Plan.phase.Swstep.Phase.name = "force")
     m.E.step.Swstep.Plan.phases)
    .Swstep.Plan.duration

let measurement_outputs (m : E.measurement) =
  [ ("step_time", hex m.E.step_time) ]
  @ List.map (fun (row, t) -> ("row " ^ row, hex t)) (E.rows m)
  @ [
      ("read_miss", hex m.E.read_miss);
      ("nsearch_miss", hex m.E.nsearch_miss);
      ("kernel_elapsed", hex (force_elapsed m));
    ]

(** [price_op ()] is the price24k op: outputs and priced atoms. *)
let price_op () =
  let m = measure () in
  (measurement_outputs m, float_of_int m.E.global_atoms)

(* The calls Engine.measure makes on its core group, in its order: the
   3000-atom system build, the CPE pair search, the Mark kernel.  The
   swstep planning and analytic phases around them are left to
   [bench.unattributed_ms]. *)
let price_mirror ~keep =
  let c = cfg () in
  let sys, rcut =
    L.span "mdcore.build" (fun () ->
        let atoms_per_cg = max 12 ((total_atoms + (n_cg / 2)) / n_cg) in
        let st = Md.Water.build ~molecules:(max 4 (atoms_per_cg / 3)) ~seed:2019 () in
        let box = st.Md.Md_state.box in
        let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
        let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
        let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
        let cl = Md.Cluster.build box st.Md.Md_state.pos (Md.Md_state.n_atoms st) in
        ( K.make c ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
            ~pos:st.Md.Md_state.pos,
          rcut ))
  in
  let cg = Swarch.Core_group.create c in
  let pairs, ns =
    L.span "swgmx.nsearch" (fun () ->
        Swarch.Core_group.reset cg;
        Swgmx.Nsearch_cpe.run sys cg ~kind:Swgmx.Nsearch_cpe.Two_way ~rlist:rcut)
  in
  L.count "swgmx.nsearch_candidates" (float_of_int ns.Swgmx.Nsearch_cpe.candidates);
  let o = L.span "swgmx.kernel" (fun () -> Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Mark) in
  L.count "swgmx.cluster_pairs" (float_of_int (Md.Pair_list.n_pairs pairs));
  L.count "sim.kernel_s" o.Swgmx.Kernel.elapsed;
  count_kernel_cost cg;
  keep := Some (sys, pairs, cg);
  let read_miss =
    match o.Swgmx.Kernel.stats with
    | Some { Swgmx.Kernel_cpe.read_stats = Some s; _ } -> Swcache.Stats.miss_ratio s
    | _ -> 0.0
  in
  [
    ("read_miss", hex read_miss);
    ("nsearch_miss", hex ns.Swgmx.Nsearch_cpe.miss_ratio);
    ("kernel_elapsed", hex o.Swgmx.Kernel.elapsed);
    ("kernel_e_lj", hex (K.e_lj o.Swgmx.Kernel.result));
    ("kernel_e_coul", hex (K.e_coul o.Swgmx.Kernel.result));
  ]

(* Mark minus Cache on the same pair list bounds what SIMD emulation and
   vector cost charging add to the kernel *)
let scalar_diagnostic keep () =
  match !keep with
  | None -> ()
  | Some (sys, pairs, cg) ->
      L.span "swgmx.kernel_scalar" (fun () ->
          ignore (Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Cache))

(* The ROADMAP baseline.  Each op builds a fresh 3000-atom core-group
   system; the Mark kernel (SIMD emulation plus cost charging) is most of
   it and the CPE pair search most of the rest.  Engine.measure fixes its
   own seed, so this workload ignores the workload seed. *)
let price24k =
  {
    name = "price24k";
    seeded = false;
    work_unit = "atoms/s";
    setup =
      (fun ~seed:_ ~out_dir:_ ->
        ignore (measure ());
        let keep = ref None in
        {
          op = (fun _ -> price_op ());
          mirror = (fun _ -> price_mirror ~keep);
          diagnostic = scalar_diagnostic keep;
          after = no_after;
        });
  }

(* ------------------------------------------------------------------ *)
(* md96: Figure-13 dynamics, 96 waters for 80 steps *)

let molecules = 96
let md_steps = 80

let md_outputs ~energy ~temperature =
  [ ("energy", hex energy); ("temperature", hex temperature) ]

(* set-up: build, minimise and thermalise through Engine.simulate, keeping
   the step-0 checkpoint it captures *)
let md_checkpoint ~seed =
  let ck = ref None in
  ignore
    (L.span "mdcore.minimize" (fun () ->
         E.simulate_protected ~cfg:(cfg ()) ~molecules ~seed ~steps:0
           ~sample_every:md_steps ~checkpoint_every:10
           ~on_checkpoint:(fun c -> ck := Some c)
           ()));
  Option.get !ck

(* op: the dynamics, restarted from that checkpoint, so minimisation stays
   in the set-up instead of being repeated by every op *)
let md_op ~seed ck =
  match
    E.simulate_protected ~cfg:(cfg ()) ~molecules ~seed ~steps:md_steps
      ~sample_every:md_steps ~restart:ck ()
  with
  | [ s ], _, _ ->
      ( md_outputs ~energy:s.E.total_energy ~temperature:s.E.temperature,
        float_of_int md_steps )
  | _ -> failwith "md96: expected one energy sample"

(* Engine.simulate_full's restart path with its defaults (Mark kernel,
   dt 1 fs, 300 K, no faults or further checkpoints), each call in its
   layer's span *)
let md_mirror ~seed ck =
  let c = cfg () and dt = 0.001 in
  let st =
    L.span "mdcore.build" (fun () ->
        let st = Md.Water.build ~molecules ~seed () in
        ignore (Swio.Checkpoint.restore ck ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel);
        st)
  in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let config =
    {
      Md.Workflow.dt;
      nstlist = 10;
      rlist = rcut;
      nb = params;
      pme_grid = Some 32;
      thermostat = Some (Md.Thermostat.create ~t_ref:300.0 ~tau:0.5 ());
    }
  in
  let n = Md.Md_state.n_atoms st in
  let w = L.span "mdcore.pairlist" (fun () -> Md.Workflow.create ~config st) in
  let cg = Swarch.Core_group.create c in
  let energy = w.Md.Workflow.energy in
  let pos = st.Md.Md_state.pos and force = st.Md.Md_state.force in
  let charge = st.Md.Md_state.topo.Md.Topology.charge in
  for s = 1 to md_steps do
    if (s - 1) mod config.Md.Workflow.nstlist = 0 then
      L.span "mdcore.pairlist" (fun () -> Md.Workflow.neighbour_search w);
    L.span "mdcore.update" (fun () ->
        Md.Md_state.clear_forces st;
        let kin = energy.Md.Energy.kinetic in
        Md.Energy.reset energy;
        energy.Md.Energy.kinetic <- kin);
    let sys =
      L.span "mdcore.build" (fun () ->
          K.make c ~box ~params ~cl:w.Md.Workflow.cluster ~topo:st.Md.Md_state.topo
            ~ff:st.Md.Md_state.ff ~pos)
    in
    let o =
      L.span "swgmx.kernel" (fun () ->
          Swgmx.Kernel.run sys w.Md.Workflow.pairs cg Swgmx.Variant.Mark)
    in
    L.count "swgmx.cluster_pairs" (float_of_int (Md.Pair_list.n_pairs w.Md.Workflow.pairs));
    L.count "sim.kernel_s" o.Swgmx.Kernel.elapsed;
    count_kernel_cost cg;
    L.span "mdcore.update" (fun () ->
        K.scatter_forces sys o.Swgmx.Kernel.result force;
        energy.Md.Energy.lj <- K.e_lj o.Swgmx.Kernel.result;
        energy.Md.Energy.coulomb_sr <- K.e_coul o.Swgmx.Kernel.result;
        Md.Nonbonded.excluded_corrections st params energy);
    Option.iter
      (fun pme ->
        L.span "mdcore.pme" (fun () ->
            Md.Pme.spread pme ~pos ~charge ~n;
            let e_recip = Md.Pme.solve pme in
            Md.Pme.gather_forces pme ~pos ~charge ~n ~force;
            energy.Md.Energy.coulomb_recip <-
              energy.Md.Energy.coulomb_recip +. e_recip
              +. Md.Coulomb.self_energy ~beta charge))
      w.Md.Workflow.pme;
    L.span "mdcore.update" (fun () ->
        let ref_pos = w.Md.Workflow.ref_pos and vel = st.Md.Md_state.vel in
        Md.Fbuf.blit pos 0 ref_pos 0 (3 * n);
        Md.Integrator.step st ~dt;
        let iters = Md.Constraints.apply w.Md.Workflow.shake ~ref_pos ~pos in
        L.count "mdcore.shake_iters" (float_of_int iters);
        let inv_dt = 1.0 /. dt in
        for k = 0 to (3 * n) - 1 do
          Md.Fbuf.unsafe_set vel k
            ((Md.Fbuf.unsafe_get pos k -. Md.Fbuf.unsafe_get ref_pos k) *. inv_dt)
        done;
        Option.iter (fun th -> Md.Thermostat.apply th st ~dt) config.Md.Workflow.thermostat;
        energy.Md.Energy.kinetic <- Md.Md_state.kinetic_energy st)
  done;
  md_outputs ~energy:(Md.Energy.total energy) ~temperature:(Md.Md_state.temperature st)

(* Persistent state and a reused mdcore pair list: no world rebuild and
   no CPE pair search, while PME, SHAKE and the update are about a third
   of each step — a price24k-only gain predicts no change here. *)
let md96 =
  {
    name = "md96";
    seeded = true;
    work_unit = "steps/s";
    setup =
      (fun ~seed ~out_dir:_ ->
        let ck = md_checkpoint ~seed in
        {
          op = (fun _ -> md_op ~seed ck);
          mirror = (fun _ -> md_mirror ~seed ck);
          diagnostic = no_diagnostic;
          after = no_after;
        });
  }

(* ------------------------------------------------------------------ *)
(* replay3k: swsched replays of one recorded 3000-atom Mark kernel *)

(* channels x buffers x DMA error rate; (1, 2, 0) is the platform's own
   replay, the one bench/main.exe reports as mark3k_scheduled_s *)
let configs =
  Array.of_list
    (List.concat_map
       (fun ch ->
         List.concat_map
           (fun buf -> List.map (fun err -> (ch, buf, err)) [ 0.0; 0.05 ])
           [ 1; 2; 3 ])
       [ 1.0; 2.0; 4.0; 8.0 ])

(* bench/main.exe's fault seed, so the 5% rows cross-check too *)
let fault_seed = 2027

let replay ~recorder ~mpe i =
  let ch, buffers, err = configs.(i mod Array.length configs) in
  let faults =
    if err = 0.0 then None
    else
      Some
        (Swfault.Injector.create ~seed:fault_seed
           { Swfault.Plan.zero with Swfault.Plan.dma_error_rate = err })
  in
  let s =
    L.span
      (if err = 0.0 then "swsched.replay" else "swsched.replay_faulty")
      (fun () -> Swsched.Schedule.run ~channels:ch ~buffers ?faults (cfg ()) recorder)
  in
  let key = Printf.sprintf "ch%g/buf%d/err%g " ch buffers err in
  ( [
      (key ^ "elapsed", hex (s.Swsched.Schedule.elapsed +. mpe));
      (key ^ "events", int s.Swsched.Schedule.events);
      (key ^ "dma_retries", int s.Swsched.Schedule.dma_retries);
    ],
    s )

(* Almost all swsched event queue and DMA engine, never the kernel: the
   inverse of price24k, so a replay change shows here and a kernel change
   does not. *)
let replay3k =
  {
    name = "replay3k";
    seeded = true;
    work_unit = "events/s";
    setup =
      (fun ~seed ~out_dir:_ ->
        let c = cfg () in
        let p = Swbench.Common.prepare ~seed ~particles:3000 () in
        let cg = Swarch.Core_group.create c in
        let recorder = Swsched.Recorder.create c in
        L.span "swgmx.record" (fun () ->
            ignore
              (Swgmx.Kernel_cpe.run ~sched:recorder p.Swbench.Common.sys
                 p.Swbench.Common.pairs cg
                 (Swgmx.Kernel_cpe.spec_of_variant Swgmx.Variant.Mark)));
        let mpe = Swarch.Mpe.time c cg.Swarch.Core_group.mpe in
        {
          op =
            (fun i ->
              let out, s = replay ~recorder ~mpe i in
              (out, float_of_int s.Swsched.Schedule.events));
          mirror =
            (fun i ->
              let out, s = replay ~recorder ~mpe i in
              let count k v = L.count ("swsched." ^ k) (float_of_int v) in
              count "events" s.Swsched.Schedule.events;
              count "dma_requests" s.Swsched.Schedule.dma_requests;
              count "dma_retries" s.Swsched.Schedule.dma_retries;
              count "peak_in_flight" s.Swsched.Schedule.peak_in_flight;
              L.count "swsched.elapsed_s" s.Swsched.Schedule.elapsed;
              out);
          diagnostic = no_diagnostic;
          after = no_after;
        });
  }

(* ------------------------------------------------------------------ *)
(* trace24k: the sw_gromacs --trace path, one traced 24k step exported *)

let traced_step ~path =
  let module T = Swtrace.Trace in
  T.enable ();
  Fun.protect ~finally:T.disable (fun () ->
      let m =
        L.span "swgmx.traced_step" (fun () ->
            E.trace_steps ~cfg:(cfg ()) ~version:E.V_other ~total_atoms ~n_cg
              ~steps:1 ())
      in
      let events = L.span "swtrace.collect" T.events in
      L.span "swtrace.export" (fun () -> Swtrace.Chrome.write_file path events);
      (m.E.step_time, List.length events, T.dropped ()))

let trace_outputs (step_time, events, dropped) =
  [ ("step_time", hex step_time); ("events", int events); ("dropped", int dropped) ]

(* the exported file parsed back: its non-metadata entries must be the
   events the step recorded *)
let parsed_events path =
  let module J = Swtrace.Json in
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg -> failwith ("trace24k: exported trace does not parse: " ^ msg)
  | Ok doc ->
      let entries =
        Option.value ~default:[]
          (Option.bind (J.member "traceEvents" doc) J.to_list)
      in
      List.length
        (List.filter
           (fun e -> Option.bind (J.member "ph" e) J.to_str <> Some "M")
           entries)

(* The price24k step with event emission on, then collect and export: a
   kernel gain that adds per-event cost, or an export change, shows only
   here.  Ignores the workload seed, like price24k. *)
let trace24k =
  {
    name = "trace24k";
    seeded = false;
    work_unit = "events/s";
    setup =
      (fun ~seed:_ ~out_dir ->
        let path = Filename.concat out_dir "trace24k.json" in
        (* the set-up is a whole op; its layers are the mirror's, per op *)
        ignore (L.paused (fun () -> traced_step ~path));
        {
          op =
            (fun _ ->
              let (_, events, _) as r = traced_step ~path in
              (trace_outputs r, float_of_int events));
          mirror =
            (fun _ ->
              let (step_time, events, dropped) as r = traced_step ~path in
              L.count "sim.step_s" step_time;
              L.count "swtrace.events" (float_of_int events);
              L.count "swtrace.dropped" (float_of_int dropped);
              L.count "swtrace.file_mb"
                (float_of_int (Unix.stat path).Unix.st_size /. 1e6);
              trace_outputs r);
          diagnostic = no_diagnostic;
          after = (fun () -> [ ("events", int (parsed_events path)) ]);
        });
  }

let all = [ price24k; md96; replay3k; trace24k ]

let find name = List.find_opt (fun w -> w.name = name) all
