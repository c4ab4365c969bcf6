(** Reference MD workflow (Figure 1 of the paper).

    The canonical simulation loop — neighbour search every [nstlist]
    steps, force calculation (short-range non-bonded, PME reciprocal,
    bonded), configuration update (leapfrog + SHAKE + thermostat) —
    executed in plain double precision on the host.  This is both the
    "x86 reference" of the accuracy experiment (Fig 13) and the
    correctness oracle for the optimized SW kernels.

    The step is a fixed sequence of named stages ({!search_if_due},
    {!start_forces}, short-range forces, {!finish_forces}, {!update}).
    {!step} fills the short-range slot with {!Nonbonded.compute}; the
    optimized dynamics call the same stages around their own kernel, so
    the two runs of Fig 13 differ in that kernel only. *)

type config = {
  dt : float;  (** time step, ps *)
  nstlist : int;  (** neighbour-list refresh interval (Table 3: 10) *)
  rlist : float;  (** pair-list radius (Table 3: 1.0 nm) *)
  nb : Nonbonded.params;  (** short-range interaction parameters *)
  pme_grid : int option;  (** PME mesh dimension; [None] disables PME *)
  thermostat : Thermostat.t option;
}

(** [default_config] mirrors Table 3: nstlist 10, rlist 1.0 nm, PME
    electrostatics, 2 fs steps, 300 K Berendsen coupling. *)
let default_config =
  {
    dt = 0.002;
    nstlist = 10;
    rlist = 1.0;
    nb = Nonbonded.default_params;
    pme_grid = Some 32;
    thermostat = Some (Thermostat.create ~t_ref:300.0 ~tau:0.5 ());
  }

type t = {
  state : Md_state.t;
  config : config;
  shake : Constraints.t;
  pme : Pme.t option;
  energy : Energy.t;
  mutable cluster : Cluster.t;
  mutable pairs : Pair_list.t;
  mutable step_count : int;  (** steps completed; drives the pair-list cadence *)
  mutable pairs_in_cutoff : int;
  ref_pos : Fbuf.t;  (** scratch: positions before the update *)
  trial : Fbuf.t;  (** scratch: trial positions during minimization *)
}

(** [create ?config state] prepares a runnable simulation; the initial
    pair list is built immediately. *)
let create ?(config = default_config) (state : Md_state.t) =
  if config.rlist < config.nb.Nonbonded.rcut then
    invalid_arg "Workflow.create: rlist must be >= rcut";
  let cluster = Cluster.build state.Md_state.box state.Md_state.pos (Md_state.n_atoms state) in
  let pairs =
    Pair_list.build state.Md_state.box cluster ~pos:state.Md_state.pos
      ~rlist:config.rlist ()
  in
  let pme =
    match (config.pme_grid, config.nb.Nonbonded.elec) with
    | Some dim, Nonbonded.Ewald_real beta ->
        Some (Pme.create ~grid_dim:dim ~box:state.Md_state.box ~beta)
    | Some _, Nonbonded.Reaction_field | None, _ -> None
  in
  {
    state;
    config;
    shake = Constraints.create state.Md_state.topo;
    pme;
    energy = Energy.create ();
    cluster;
    pairs;
    step_count = 0;
    pairs_in_cutoff = 0;
    ref_pos = Fbuf.create (3 * Md_state.n_atoms state);
    trial = Fbuf.create (3 * Md_state.n_atoms state);
  }

(** [neighbour_search t] rebuilds the cluster decomposition and the
    pair list from current positions. *)
let neighbour_search t =
  t.cluster <-
    Cluster.build t.state.Md_state.box t.state.Md_state.pos (Md_state.n_atoms t.state);
  t.pairs <-
    Pair_list.build t.state.Md_state.box t.cluster ~pos:t.state.Md_state.pos
      ~rlist:t.config.rlist ()

(** [search_if_due t] rebuilds the pair list when [t.step_count] is on
    the [nstlist] cadence. *)
let search_if_due t =
  if t.step_count mod t.config.nstlist = 0 then neighbour_search t

(** [start_forces t] opens a force evaluation: clears the forces and
    zeroes every energy term except the kinetic one. *)
let start_forces t =
  Md_state.clear_forces t.state;
  let kin = t.energy.Energy.kinetic in
  Energy.reset t.energy;
  t.energy.Energy.kinetic <- kin

(** [finish_forces t] adds every term after the short-range pair
    forces: excluded-pair corrections, PME reciprocal space and bonded
    interactions. *)
let finish_forces t =
  let state = t.state in
  Nonbonded.excluded_corrections state t.config.nb t.energy;
  (match (t.pme, t.config.nb.Nonbonded.elec) with
  | Some pme, Nonbonded.Ewald_real beta ->
      let n = Md_state.n_atoms state in
      Pme.spread pme ~pos:state.Md_state.pos ~charge:state.Md_state.topo.Topology.charge ~n;
      let e_recip = Pme.solve pme in
      Pme.gather_forces pme ~pos:state.Md_state.pos
        ~charge:state.Md_state.topo.Topology.charge ~n ~force:state.Md_state.force;
      t.energy.Energy.coulomb_recip <-
        t.energy.Energy.coulomb_recip +. e_recip
        +. Coulomb.self_energy ~beta state.Md_state.topo.Topology.charge
  | Some _, Nonbonded.Reaction_field | None, _ -> ());
  t.energy.Energy.bonded <-
    Bonded.compute state.Md_state.box state.Md_state.topo state.Md_state.pos
      state.Md_state.force

(** [compute_forces t] clears forces, evaluates every term and leaves
    per-term energies in [t.energy] (kinetic untouched). *)
let compute_forces t =
  start_forces t;
  t.pairs_in_cutoff <-
    Nonbonded.compute t.state t.cluster t.pairs t.config.nb t.energy;
  finish_forces t

(** [update t] closes the step on the current forces: leapfrog, SHAKE,
    velocity back-derivation, thermostat, kinetic energy and the step
    count. *)
let update t =
  let state = t.state in
  Fbuf.blit state.Md_state.pos 0 t.ref_pos 0 (Fbuf.length t.ref_pos);
  Integrator.step state ~dt:t.config.dt;
  if Constraints.n_constraints t.shake > 0 then begin
    ignore (Constraints.apply t.shake ~ref_pos:t.ref_pos ~pos:state.Md_state.pos);
    (* leapfrog velocities consistent with the constrained move *)
    let inv_dt = 1.0 /. t.config.dt in
    let pos = state.Md_state.pos
    and vel = state.Md_state.vel
    and ref_pos = t.ref_pos in
    for k = 0 to Fbuf.length ref_pos - 1 do
      Fbuf.unsafe_set vel k
        ((Fbuf.unsafe_get pos k -. Fbuf.unsafe_get ref_pos k) *. inv_dt)
    done
  end;
  (match t.config.thermostat with
  | Some th -> Thermostat.apply th state ~dt:t.config.dt
  | None -> ());
  t.energy.Energy.kinetic <- Md_state.kinetic_energy state;
  t.step_count <- t.step_count + 1

(** [step t] advances the system by one full MD step: neighbour search
    when due, forces, then {!update}. *)
let step t =
  search_if_due t;
  compute_forces t;
  update t

(** [minimize ?steps t] relaxes the configuration by steepest descent
    with adaptive step size and SHAKE re-projection — the "steep"
    integrator GROMACS uses to fix up generated starting structures.
    Returns the final potential energy. *)
let minimize ?(steps = 100) t =
  let state = t.state in
  let n3 = 3 * Md_state.n_atoms state in
  let trial = t.trial in
  let h = ref 0.01 in
  let pe () = Energy.potential t.energy in
  neighbour_search t;
  compute_forces t;
  let current = ref (pe ()) in
  for _ = 1 to steps do
    let force = state.Md_state.force and pos = state.Md_state.pos in
    let fmax = ref 1e-12 in
    for k = 0 to n3 - 1 do
      fmax := Float.max !fmax (Float.abs (Fbuf.unsafe_get force k))
    done;
    let fmax = !fmax in
    Fbuf.blit pos 0 trial 0 n3;
    for k = 0 to n3 - 1 do
      Fbuf.unsafe_set pos k
        (Fbuf.unsafe_get pos k +. (!h *. Fbuf.unsafe_get force k /. fmax))
    done;
    if Constraints.n_constraints t.shake > 0 then
      ignore (Constraints.apply t.shake ~ref_pos:trial ~pos:state.Md_state.pos);
    neighbour_search t;
    compute_forces t;
    let e = pe () in
    if e < !current then begin
      current := e;
      h := Float.min 0.05 (!h *. 1.2)
    end
    else begin
      (* revert the move and try a smaller step *)
      Fbuf.blit trial 0 state.Md_state.pos 0 n3;
      h := Float.max 1e-6 (!h *. 0.3);
      neighbour_search t;
      compute_forces t
    end
  done;
  !current

(** [run t n] takes [n] steps. *)
let run t n =
  for _ = 1 to n do
    step t
  done

(** [water_box ~dt ~temp ~molecules ~seed] is the Fig-13 system before
    equilibration: a {!Water.build} box with rcut = rlist =
    min(0.9, 0.45 x shortest edge) nm, Ewald beta at a 1e-5 real-space
    tolerance, nstlist 10, a 32^3 PME mesh and Berendsen coupling to
    [temp] with tau = 0.5 ps. *)
let water_box ~dt ~temp ~molecules ~seed =
  let state = Water.build ~molecules ~seed () in
  let rcut = Float.min 0.9 (0.45 *. Box.min_edge state.Md_state.box) in
  let beta = Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let config =
    {
      dt;
      nstlist = default_config.nstlist;
      rlist = rcut;
      nb = { Nonbonded.rcut; elec = Nonbonded.Ewald_real beta };
      pme_grid = Some 32;
      thermostat = Some (Thermostat.create ~t_ref:temp ~tau:0.5 ());
    }
  in
  create ~config state

(** [equilibrate t ~seed ~steps] prepares a {!water_box} for a measured
    run: 60 steps of {!minimize}, fresh velocities at the coupling
    temperature drawn from [seed + 1], then [steps] steps under strong
    coupling (tau = 0.02 ps) that drain the remaining lattice strain.
    [t.step_count] stays 0. *)
let equilibrate t ~seed ~steps =
  let temp =
    match t.config.thermostat with
    | Some th -> th.Thermostat.t_ref
    | None -> invalid_arg "Workflow.equilibrate: needs a thermostat"
  in
  ignore (minimize ~steps:60 t);
  Md_state.thermalize t.state (Rng.create (seed + 1)) temp;
  if steps > 0 then begin
    let strong =
      {
        t.config with
        thermostat = Some (Thermostat.create ~t_ref:temp ~tau:0.02 ());
      }
    in
    run (create ~config:strong t.state) steps
  end

(** [total_energy t] is the current total energy (kJ/mol); call after
    at least one {!step} or {!compute_forces}. *)
let total_energy t =
  t.energy.Energy.kinetic <- Md_state.kinetic_energy t.state;
  Energy.total t.energy

(** [temperature t] is the instantaneous temperature (K). *)
let temperature t = Md_state.temperature t.state
