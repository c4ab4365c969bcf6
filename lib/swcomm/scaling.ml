(** Strong and weak scaling model (Figure 12, Equations 5-6).

    Per-step time at [n] core groups is assembled from a per-CG compute
    time (supplied by the caller, typically measured with the simulated
    force kernel at the matching particles-per-CG count) plus the
    {!Step_comm} communication model.

    [eff_strong n = t4 / ((n/4) * t_n)] and [eff_weak n = t4 / t_n],
    with 4 CGs (one chip) as the baseline, exactly as the paper
    defines them. *)

type point = {
  cgs : int;
  step_time : float;  (** simulated seconds per MD step *)
  efficiency : float;
  speedup : float;  (** relative to the 4-CG baseline *)
}

(** GROMACS's default PME Fourier spacing (nm) used to derive the mesh
    dimension from the box edge. *)
let fourier_spacing = 0.12

(** [grid_for edge] is the PME mesh dimension for a cubic box of edge
    [edge] nm at {!fourier_spacing} (at least 16 points). *)
let grid_for edge = max 16 (int_of_float (Float.ceil (edge /. fourier_spacing)))

(** [step_time ?net ~compute ~transport ~total_atoms ~rcut ~box_edge
    cgs] is the modelled per-step wall time at [cgs] core groups;
    [compute atoms_per_cg] supplies the on-chip time. *)
let step_time ?(net = Network.default) ~compute ~transport ~total_atoms ~rcut
    ~box_edge cgs =
  let atoms_per_cg = max 1 (total_atoms / cgs) in
  let on_chip = compute atoms_per_cg in
  let comm =
    Step_comm.compute
      {
        Step_comm.net;
        transport;
        total_atoms;
        ranks = cgs;
        rcut;
        box_edge;
        pme_grid = grid_for box_edge;
        compute_time = on_chip;
        faults = None;
      }
  in
  on_chip +. Step_comm.total comm

(** [strong ~compute ~total_atoms ~rcut ~box_edge cgs_list] evaluates
    the strong-scaling curve: fixed [total_atoms] over each CG count. *)
let strong ?(net = Network.default) ?(transport = Network.Rdma) ~compute
    ~total_atoms ~rcut ~box_edge cgs_list =
  let t cgs = step_time ~net ~compute ~transport ~total_atoms ~rcut ~box_edge cgs in
  let t4 = t 4 in
  List.map
    (fun cgs ->
      let tn = t cgs in
      {
        cgs;
        step_time = tn;
        efficiency = t4 /. (float_of_int cgs /. 4.0 *. tn);
        speedup = t4 /. tn;
      })
    cgs_list

(** [weak ~compute ~atoms_per_cg ~rcut ~box_edge_per_cg cgs_list]
    evaluates the weak-scaling curve: [atoms_per_cg] stays constant,
    the global system (and its PME mesh) grows. *)
let weak ?(net = Network.default) ?(transport = Network.Rdma) ~compute
    ~atoms_per_cg ~rcut ~box_edge_per_cg cgs_list =
  let t cgs =
    let total_atoms = atoms_per_cg * cgs in
    let box_edge = box_edge_per_cg *. (float_of_int cgs ** (1.0 /. 3.0)) in
    step_time ~net ~compute ~transport ~total_atoms ~rcut ~box_edge cgs
  in
  let t4 = t 4 in
  List.map
    (fun cgs ->
      let tn = t cgs in
      { cgs; step_time = tn; efficiency = t4 /. tn; speedup = t4 /. tn })
    cgs_list
