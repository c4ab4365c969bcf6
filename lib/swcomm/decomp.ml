(** Spatial domain decomposition across core groups.

    One MPI rank per core group; the global box is split into a 3D
    grid of near-cubic domains.  The decomposition determines halo
    partners and per-step communication volumes. *)

type t = {
  ranks : int;
  nx : int;
  ny : int;
  nz : int;
}

(** [factor3 n] splits [n] into three near-equal factors (largest
    first), the shape GROMACS's DD chooses for cubic boxes. *)
let factor3 n =
  if n <= 0 then invalid_arg "Decomp.factor3: ranks must be positive";
  let best = ref (n, 1, 1) in
  let score (a, b, c) =
    (* lower surface-to-volume is better; compare perimeters *)
    (a * b) + (b * c) + (a * c)
  in
  for a = 1 to n do
    if n mod a = 0 then begin
      let m = n / a in
      for b = 1 to m do
        if m mod b = 0 then begin
          let c = m / b in
          if score (a, b, c) < score !best then best := (a, b, c)
        end
      done
    end
  done;
  !best

(** [create ranks] is the decomposition GROMACS would pick. *)
let create ranks =
  let nx, ny, nz = factor3 ranks in
  { ranks; nx; ny; nz }

(** [active_dims t] is the number of decomposed dimensions (those with
    more than one domain). *)
let active_dims t =
  (if t.nx > 1 then 1 else 0) + (if t.ny > 1 then 1 else 0)
  + if t.nz > 1 then 1 else 0

(** [halo_partners t] is the number of neighbour domains each rank
    exchanges halos with per step: 2 faces per decomposed dimension
    plus edge/corner partners once the decomposition is 2D/3D. *)
let halo_partners t =
  match active_dims t with
  | 0 -> 0
  | 1 -> 2
  | 2 -> 8
  | _ -> 26

(** [halo_atoms t ~atoms_per_rank ~rcut ~domain_edge] estimates the
    number of atoms in one face halo: the slab of thickness [rcut]
    against a domain of edge [domain_edge]. *)
let halo_atoms ~atoms_per_rank ~rcut ~domain_edge =
  if domain_edge <= 0.0 then 0
  else
    let frac = Float.min 1.0 (rcut /. domain_edge) in
    int_of_float (Float.ceil (float_of_int atoms_per_rank *. frac))
