(** Lennard-Jones interaction (Equations 1-2 of the paper).

    [V(r) = C12/r^12 - C6/r^6]; the force on particle i from j is
    [F = (12 C12/r^13 - 6 C6/r^7) r_ij/r = (12 C12/r^14 - 6 C6/r^8) r_ij]. *)

(** [energy ~c6 ~c12 r2] is the potential at squared distance [r2]. *)
let energy ~c6 ~c12 r2 =
  let inv_r2 = 1.0 /. r2 in
  let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
  (c12 *. inv_r6 *. inv_r6) -. (c6 *. inv_r6)

(** [force_over_r ~c6 ~c12 r2] is [|F|/r] at squared distance [r2]:
    multiply by the displacement vector to get the force on i. *)
let force_over_r ~c6 ~c12 r2 =
  let inv_r2 = 1.0 /. r2 in
  let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
  ((12.0 *. c12 *. inv_r6 *. inv_r6) -. (6.0 *. c6 *. inv_r6)) *. inv_r2

(** [r_min ~c6 ~c12] is the location of the potential minimum,
    [(2 C12/C6)^(1/6)]; raises if the pair has no attraction. *)
let r_min ~c6 ~c12 =
  if c6 <= 0.0 || c12 <= 0.0 then invalid_arg "Lj.r_min: non-attractive pair";
  (2.0 *. c12 /. c6) ** (1.0 /. 6.0)

(** [well_depth ~c6 ~c12] is the depth of the potential well. *)
let well_depth ~c6 ~c12 =
  if c12 <= 0.0 then 0.0 else c6 *. c6 /. (4.0 *. c12)
