(** Shared helpers of the experiment harness. *)

module Md = Mdcore
module K = Swgmx.Kernel_common

(* The harness runs every experiment against one active platform; the
   CLI swaps it with [set_platform] before any experiment executes. *)
let platform = ref Swarch.Platform.default

let cfg () = !platform

(** [set_platform p] makes [p] the active machine description for all
    subsequent experiments (validated; memoized measurements are keyed
    by platform name, so switching back and forth is safe). *)
let set_platform p =
  Swarch.Platform.validate p;
  platform := p

type prepared = {
  st : Md.Md_state.t;
  sys : K.system;
  pairs : Md.Pair_list.t;
  rcut : float;
}

(** [prepare ~particles ()] builds the standard water system snapshot
    for kernel experiments — {!Swgmx.Engine.water_system}, the system
    {!Swgmx.Engine.measure} prices — with its reference pair list. *)
let prepare ?(seed = 2019) ~particles () =
  let ((st, cl, params) as water) = Swgmx.Engine.water_system ~seed ~particles in
  let rcut = params.Md.Nonbonded.rcut in
  (* The pair list is built before the system is packed.  In the other
     order the host heap of a process that then replays the Mark
     kernel (perfbench's replay3k) peaks 8 MB higher on half of the
     seeds; in this order the peak stays within 2 MB across seeds. *)
  let pairs =
    Md.Pair_list.build st.Md.Md_state.box cl ~pos:st.Md.Md_state.pos ~rlist:rcut ()
  in
  { st; sys = Swgmx.Engine.pack (cfg ()) water; pairs; rcut }

(** [record_mark p] runs the Mark kernel on [p] once, on a fresh core
    group of the active platform, with a {!Swsched.Recorder} attached:
    the group holds the serial charges, and the recording replays
    through {!Swsched.Schedule.run} under any channel count, buffer
    depth or fault plan. *)
let record_mark p =
  let cfg = cfg () in
  let cg = Swarch.Core_group.create cfg in
  let recorder = Swsched.Recorder.create cfg in
  ignore
    (Swgmx.Kernel_cpe.run ~sched:recorder p.sys p.pairs cg
       (Swgmx.Kernel_cpe.spec_of_variant Swgmx.Variant.Mark));
  (cg, recorder)

(** [kernel_outcome prepared variant] runs one force-kernel variant on
    a fresh core group. *)
let kernel_outcome p variant =
  let cg = Swarch.Core_group.create (cfg ()) in
  Swgmx.Kernel.run p.sys p.pairs cg variant

(** Memoized [Engine.measure], keyed by (platform, version, plan,
    atoms, n_cg, fault plan): the same measurements feed Table 1,
    Figure 10 and the overlap ablation, and Ablation 10 re-runs them
    per platform.  The fault plan is part of the key — a degraded
    machine prices differently, and a memo hit across fault plans
    would silently return the wrong profile. *)
let measure_cache :
    ( string * Swgmx.Engine.version * Swstep.Plan.mode * int * int * string
      * string,
      Swgmx.Engine.measurement )
    Hashtbl.t =
  Hashtbl.create 16

(* the table is plain, so lookups/inserts are serialized: no caller
   measures from two domains at once today, but the memo stays safe
   if one does *)
let memo_lock = Mutex.create ()

(* The execution-configuration component of every memo key.  Results
   are bit-identical across domain counts by construction, but the key
   must still record how a result was produced: a measurement silently
   served across configurations would mask any future determinism
   regression instead of exposing it. *)
let exec_key () = Printf.sprintf "d%d" (Swpar.Domains.get ())

(* the fault-plan component of a measure key: plan spec + seed, "-"
   when the step is priced on a healthy machine *)
let faults_key = function
  | None -> "-"
  | Some inj ->
      Printf.sprintf "%s#%d"
        (Swfault.Plan.to_string (Swfault.Injector.plan inj))
        (Swfault.Injector.seed inj)

(** [measure ?cfg ?plan ?faults ~version ~total_atoms ~n_cg ()] is
    {!Swgmx.Engine.measure} through the memo. *)
let measure ?cfg:cfg_opt ?(plan = Swstep.Plan.Serial) ?faults ~version
    ~total_atoms ~n_cg () =
  let cfg = match cfg_opt with Some c -> c | None -> cfg () in
  let key =
    (cfg.Swarch.Config.name, version, plan, total_atoms, n_cg,
     faults_key faults, exec_key ())
  in
  match
    Mutex.protect memo_lock (fun () -> Hashtbl.find_opt measure_cache key)
  with
  | Some m -> m
  | None ->
      let m =
        Swgmx.Engine.measure ~cfg ~plan ?faults ~version ~total_atoms ~n_cg ()
      in
      Mutex.protect memo_lock (fun () ->
          if not (Hashtbl.mem measure_cache key) then
            Hashtbl.add measure_cache key m);
      m
