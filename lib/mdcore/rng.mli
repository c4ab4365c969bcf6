(** Deterministic pseudo-random numbers (SplitMix64).

    All stochastic pieces of the engine draw from this generator so
    that every experiment is exactly reproducible from its seed. *)

type t

(** [create seed] is a generator seeded with [seed]. *)
val create : int -> t

(** [next_int64 t] is the next raw 64-bit output. *)
val next_int64 : t -> int64

(** [float t] is uniform in [[0, 1)]. *)
val float : t -> float

(** [uniform t lo hi] is uniform in [[lo, hi)]. *)
val uniform : t -> float -> float -> float

(** [gaussian t] is a standard normal sample (Box-Muller). *)
val gaussian : t -> float
