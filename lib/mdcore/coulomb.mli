(** Electrostatics: short-range kernels and special functions.

    Two treatments, matching GROMACS options: {b reaction field} (cheap
    cut-off) and {b Ewald real-space} ([qq erfc(beta r)/r], whose
    reciprocal half lives in {!Pme}).  Energies are kJ/mol with charges
    in e and distances in nm. *)

(** [erfc x] is the complementary error function (Abramowitz & Stegun
    7.1.26, |error| <= 1.5e-7). *)
val erfc : float -> float

(** [erf x] is the error function, [1 - erfc x]. *)
val erf : float -> float

(** [ewald_beta ~rc ~tolerance] picks the Ewald splitting parameter so
    that [erfc(beta rc)/rc <= tolerance]. *)
val ewald_beta : rc:float -> tolerance:float -> float

(** Reaction-field constants [(krf, crf)] for a conducting medium. *)
val rf_constants : rc:float -> float * float

(** [rf_energy ~krf ~crf ~qq r2] is the reaction-field pair energy. *)
val rf_energy : krf:float -> crf:float -> qq:float -> float -> float

(** [rf_force_over_r ~krf ~qq r2] is [|F|/r] for the reaction field. *)
val rf_force_over_r : krf:float -> qq:float -> float -> float

(** [ewald_real_energy ~beta ~qq r2] is the real-space Ewald pair
    energy. *)
val ewald_real_energy : beta:float -> qq:float -> float -> float

(** [ewald_real_force_over_r ~beta ~qq r2] is [|F|/r] for the
    real-space Ewald term. *)
val ewald_real_force_over_r : beta:float -> qq:float -> float -> float

(** [ewald_real_into ~beta ~n ~qq ~r2 ~f ~e] sets [f.(l)] to
    [ewald_real_force_over_r ~beta ~qq:qq.(l) r2.(l)] and [e.(l)] to
    [ewald_real_energy ~beta ~qq:qq.(l) r2.(l)], bit for bit, for lanes
    [0 .. n-1] — the kernels' lane form, one erfc and one exponential
    per lane, with no float passed across the call. *)
val ewald_real_into :
  beta:float ->
  n:int ->
  qq:float array ->
  r2:float array ->
  f:float array ->
  e:float array ->
  unit

(** [self_energy ~beta charges] is the Ewald self-interaction
    correction, subtracted once from the reciprocal energy. *)
val self_energy : beta:float -> float array -> float

(** [excluded_correction_energy ~beta ~qq r2] removes the reciprocal
    contribution of an excluded (intramolecular) pair. *)
val excluded_correction_energy : beta:float -> qq:float -> float -> float

(** [excluded_correction_force_over_r ~beta ~qq r2] is the matching
    force term for an excluded pair. *)
val excluded_correction_force_over_r : beta:float -> qq:float -> float -> float
