(** Spatial domain decomposition across core groups: one MPI rank per
    CG, the global box split into a 3D grid of near-cubic domains. *)

type t = { ranks : int; nx : int; ny : int; nz : int }

(** [factor3 n] splits [n] into three near-equal factors (lowest
    surface-to-volume). *)
val factor3 : int -> int * int * int

(** [create ranks] is the decomposition GROMACS would pick. *)
val create : int -> t

(** [active_dims t] is the number of decomposed dimensions. *)
val active_dims : t -> int

(** [halo_partners t] is the number of neighbour domains each rank
    exchanges halos with per step. *)
val halo_partners : t -> int

(** [halo_atoms ~atoms_per_rank ~rcut ~domain_edge] estimates the atoms
    in one face halo (slab of thickness [rcut]). *)
val halo_atoms : atoms_per_rank:int -> rcut:float -> domain_edge:float -> int
