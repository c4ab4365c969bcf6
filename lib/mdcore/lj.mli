(** Lennard-Jones interaction (Equations 1-2 of the paper):
    [V(r) = C12/r^12 - C6/r^6]. *)

(** [energy ~c6 ~c12 r2] is the potential at squared distance [r2]. *)
val energy : c6:float -> c12:float -> float -> float

(** [force_over_r ~c6 ~c12 r2] is [|F|/r] at squared distance [r2]:
    multiply by the displacement vector to get the force on i. *)
val force_over_r : c6:float -> c12:float -> float -> float

(** [r_min ~c6 ~c12] is the location of the potential minimum; raises
    if the pair has no attraction. *)
val r_min : c6:float -> c12:float -> float

(** [well_depth ~c6 ~c12] is the depth of the potential well. *)
val well_depth : c6:float -> c12:float -> float
