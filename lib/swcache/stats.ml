(** Hit/miss bookkeeping shared by all software-cache flavours. *)

type t = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;  (** lines displaced while holding valid data *)
  mutable writebacks : int;  (** dirty lines written back to main memory *)
}

(** [create ()] is a zeroed counter set. *)
let create () = { hits = 0; misses = 0; evictions = 0; writebacks = 0 }

(** [accesses t] is the total number of recorded accesses. *)
let accesses t = t.hits + t.misses

(** [miss_ratio t] is misses / accesses, or [0.] before any access. *)
let miss_ratio t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.misses /. float_of_int n

(** [hit_ratio t] is hits / accesses, or [0.] before any access. *)
let hit_ratio t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n
