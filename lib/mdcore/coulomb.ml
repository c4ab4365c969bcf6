(** Electrostatics: short-range kernels and special functions.

    Two treatments are provided, matching GROMACS options:

    - {b reaction field}: a cheap cut-off method used for smoke tests;
    - {b Ewald real-space}: [q_i q_j erfc(beta r)/r], the short-range
      half of PME (the reciprocal half lives in {!Pme}).

    Energies are kJ/mol with charges in units of e and distances in
    nm; the conversion constant is {!Forcefield.ke}. *)

(* erfc from the A&S polynomial and the Gaussian factor [gauss =
   exp (-x^2)], so a caller that needs that factor anyway computes the
   exponential once *)
let[@inline] erfc_gauss ~gauss x =
  let ax = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. ax)) in
  let poly =
    t
    *. (0.254829592
       +. (t
          *. (-0.284496736
             +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let r = poly *. gauss in
  if x >= 0.0 then r else 2.0 -. r

(** [erfc x] is the complementary error function, computed with the
    Abramowitz & Stegun 7.1.26 rational approximation (|error| <=
    1.5e-7, adequate for single-precision force kernels and checked
    against series expansions in the test suite). *)
let[@inline] erfc x =
  let ax = Float.abs x in
  erfc_gauss ~gauss:(exp (-.ax *. ax)) x

(** [erf x] is the error function, [1 - erfc x]. *)
let erf x = 1.0 -. erfc x

(** [ewald_beta ~rc ~tolerance] picks the Ewald splitting parameter so
    that [erfc(beta rc)/rc <= tolerance] — the same bisection GROMACS
    performs on [ewald_rtol]. *)
let ewald_beta ~rc ~tolerance =
  if rc <= 0.0 then invalid_arg "Coulomb.ewald_beta: rc must be positive";
  if tolerance <= 0.0 || tolerance >= 1.0 then
    invalid_arg "Coulomb.ewald_beta: tolerance must be in (0,1)";
  let f beta = erfc (beta *. rc) /. rc -. tolerance in
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      if f mid > 0.0 then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  bisect 0.01 100.0 60

(** Reaction-field constants for a conducting medium
    ([epsilon_rf = infinity]): [krf = 1/(2 rc^3)], [crf = 3/(2 rc)]. *)
let rf_constants ~rc =
  let krf = 1.0 /. (2.0 *. rc *. rc *. rc) in
  let crf = 3.0 /. (2.0 *. rc) in
  (krf, crf)

(** [rf_energy ~krf ~crf ~qq r2] is the reaction-field pair energy
    [ke qq (1/r + krf r^2 - crf)]. *)
let rf_energy ~krf ~crf ~qq r2 =
  let r = sqrt r2 in
  Forcefield.ke *. qq *. ((1.0 /. r) +. (krf *. r2) -. crf)

(** [rf_force_over_r ~krf ~qq r2] is [|F|/r] for the reaction field:
    [ke qq (1/r^3 - 2 krf)]. *)
let rf_force_over_r ~krf ~qq r2 =
  let r = sqrt r2 in
  Forcefield.ke *. qq *. ((1.0 /. (r2 *. r)) -. (2.0 *. krf))

(** [ewald_real_energy ~beta ~qq r2] is the real-space Ewald pair
    energy [ke qq erfc(beta r)/r]. *)
let[@inline] ewald_real_energy ~beta ~qq r2 =
  let r = sqrt r2 in
  Forcefield.ke *. qq *. erfc (beta *. r) /. r

(** [ewald_real_force_over_r ~beta ~qq r2] is [|F|/r] for the
    real-space Ewald term:
    [ke qq (erfc(beta r)/r + 2 beta/sqrt(pi) exp(-beta^2 r^2)) / r^2]. *)
let[@inline] ewald_real_force_over_r ~beta ~qq r2 =
  let r = sqrt r2 in
  let br = beta *. r in
  Forcefield.ke *. qq
  *. ((erfc br /. r) +. (2.0 *. beta /. sqrt Float.pi *. exp (-.br *. br)))
  /. r2

(** [ewald_real_into ~beta ~n ~qq ~r2 ~f ~e] fills lanes [0 .. n-1]:
    [f.(l)] is [ewald_real_force_over_r ~beta ~qq:qq.(l) r2.(l)] and
    [e.(l)] is [ewald_real_energy ~beta ~qq:qq.(l) r2.(l)], bit for bit.
    The lanes share one erfc and one exponential: the [exp (-x^2)]
    inside erfc is the Gaussian of the force term, since negating
    either factor of [x *. x] rounds the same.  Arrays in, arrays out,
    so the kernels' lane loops pass no float across a call. *)
let ewald_real_into ~beta ~n ~(qq : float array) ~(r2 : float array)
    ~(f : float array) ~(e : float array) =
  for l = 0 to n - 1 do
    let r2l = r2.(l) and qql = qq.(l) in
    let r = sqrt r2l in
    let br = beta *. r in
    let gauss = exp (-.br *. br) in
    let erfc_br = erfc_gauss ~gauss br in
    f.(l) <-
      Forcefield.ke *. qql
      *. ((erfc_br /. r) +. (2.0 *. beta /. sqrt Float.pi *. gauss))
      /. r2l;
    e.(l) <- Forcefield.ke *. qql *. erfc_br /. r
  done

(** [self_energy ~beta charges] is the Ewald self-interaction
    correction [-ke beta/sqrt(pi) * sum q_i^2], subtracted once from
    the reciprocal energy. *)
let self_energy ~beta charges =
  let q2 = Array.fold_left (fun s q -> s +. (q *. q)) 0.0 charges in
  -.Forcefield.ke *. beta /. sqrt Float.pi *. q2

(** [excluded_correction_energy ~beta ~qq r2] removes the reciprocal
    contribution of an excluded (intramolecular) pair:
    [-ke qq erf(beta r)/r]. *)
let excluded_correction_energy ~beta ~qq r2 =
  let r = sqrt r2 in
  -.Forcefield.ke *. qq *. erf (beta *. r) /. r

(** [excluded_correction_force_over_r ~beta ~qq r2] is the matching
    force term for an excluded pair. *)
let excluded_correction_force_over_r ~beta ~qq r2 =
  let r = sqrt r2 in
  let br = beta *. r in
  -.Forcefield.ke *. qq
  *. ((erf br /. r) -. (2.0 *. beta /. sqrt Float.pi *. exp (-.br *. br)))
  /. r2
