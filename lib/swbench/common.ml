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
    for kernel experiments: PME electrostatics at a 1.0 nm cut-off
    (clamped for small boxes), exactly the Table 3 configuration. *)
let prepare ?(seed = 2019) ~particles () =
  let cfg = cfg () in
  let molecules = max 4 (particles / 3) in
  let st = Md.Water.build ~molecules ~seed () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs = Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut () in
  let sys =
    K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
      ~pos:st.Md.Md_state.pos
  in
  { st; sys; pairs; rcut }

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
