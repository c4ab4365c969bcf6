(** Hit/miss bookkeeping shared by all software-cache flavours. *)

type t = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;  (** lines displaced while holding valid data *)
  mutable writebacks : int;  (** dirty lines written back to main memory *)
}

(** [create ()] is a zeroed counter set. *)
val create : unit -> t

(** [accesses t] is the total number of recorded accesses. *)
val accesses : t -> int

(** [miss_ratio t] is misses / accesses, or [0.] before any access. *)
val miss_ratio : t -> float

(** [hit_ratio t] is hits / accesses, or [0.] before any access. *)
val hit_ratio : t -> float
