(** Deterministic pseudo-random numbers (SplitMix64).

    All stochastic pieces of the engine (initial velocities, water-box
    jitter, random orientations) draw from this generator so that every
    experiment is exactly reproducible from its seed. *)

type t = { mutable state : int64 }

(** [create seed] is a generator seeded with [seed]. *)
let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(** [next_int64 t] is the next raw 64-bit output. *)
let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [float t] is uniform in [[0, 1)]. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(** [uniform t lo hi] is uniform in [[lo, hi)]. *)
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(** [gaussian t] is a standard normal sample (Box-Muller). *)
let gaussian t =
  let u1 = Float.max 1e-12 (float t) and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
