(** Energy bookkeeping for one MD step. *)

type t = {
  mutable lj : float;  (** Lennard-Jones (short-range) *)
  mutable coulomb_sr : float;  (** short-range electrostatics *)
  mutable coulomb_recip : float;  (** PME reciprocal + self + exclusions *)
  mutable bonded : float;  (** bonds + angles + dihedrals *)
  mutable kinetic : float;
}

(** [create ()] is a zeroed record. *)
let create () =
  {
    lj = 0.0;
    coulomb_sr = 0.0;
    coulomb_recip = 0.0;
    bonded = 0.0;
    kinetic = 0.0;
  }

(** [reset t] zeroes all terms. *)
let reset t =
  t.lj <- 0.0;
  t.coulomb_sr <- 0.0;
  t.coulomb_recip <- 0.0;
  t.bonded <- 0.0;
  t.kinetic <- 0.0

(** [potential t] is the total potential energy. *)
let potential t = t.lj +. t.coulomb_sr +. t.coulomb_recip +. t.bonded

(** [total t] is potential plus kinetic. *)
let total t = potential t +. t.kinetic
