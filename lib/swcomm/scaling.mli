(** Strong and weak scaling model (Figure 12, Equations 5-6), with
    4 CGs (one chip) as the baseline. *)

type point = {
  cgs : int;
  step_time : float;  (** simulated seconds per MD step *)
  efficiency : float;
  speedup : float;  (** relative to the 4-CG baseline *)
}

(** GROMACS's default PME Fourier spacing (nm). *)
val fourier_spacing : float

(** [grid_for edge] is the PME mesh dimension for a cubic box of edge
    [edge] nm at {!fourier_spacing} (at least 16 points). *)
val grid_for : float -> int

(** [step_time ?net ~compute ~transport ~total_atoms ~rcut ~box_edge
    cgs] is the modelled per-step wall time at [cgs] core groups;
    [compute atoms_per_cg] supplies the on-chip time. *)
val step_time :
  ?net:Network.t ->
  compute:(int -> float) ->
  transport:Network.transport ->
  total_atoms:int ->
  rcut:float ->
  box_edge:float ->
  int ->
  float

(** [strong ~compute ~total_atoms ~rcut ~box_edge cgs_list] evaluates
    the strong-scaling curve (fixed total system). *)
val strong :
  ?net:Network.t ->
  ?transport:Network.transport ->
  compute:(int -> float) ->
  total_atoms:int ->
  rcut:float ->
  box_edge:float ->
  int list ->
  point list

(** [weak ~compute ~atoms_per_cg ~rcut ~box_edge_per_cg cgs_list]
    evaluates the weak-scaling curve (fixed work per CG). *)
val weak :
  ?net:Network.t ->
  ?transport:Network.transport ->
  compute:(int -> float) ->
  atoms_per_cg:int ->
  rcut:float ->
  box_edge_per_cg:float ->
  int list ->
  point list
