(** Energy bookkeeping for one MD step. *)

type t = {
  mutable lj : float;  (** Lennard-Jones (short-range) *)
  mutable coulomb_sr : float;  (** short-range electrostatics *)
  mutable coulomb_recip : float;  (** PME reciprocal + self + exclusions *)
  mutable bonded : float;  (** bonds + angles + dihedrals *)
  mutable kinetic : float;
}

(** [create ()] is a zeroed record. *)
val create : unit -> t

(** [reset t] zeroes all terms. *)
val reset : t -> unit

(** [potential t] is the total potential energy. *)
val potential : t -> float

(** [total t] is potential plus kinetic. *)
val total : t -> float
