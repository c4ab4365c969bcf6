(** One computing processing element (CPE).

    A CPE is a simple in-order RISC core with a private scratchpad.
    In the simulator a CPE is an identifier, a cost accumulator and an
    LDM allocator; kernels execute their per-CPE slice sequentially
    while charging this record. *)

type t = {
  id : int;  (** position in the mesh, [0 .. cpe_count-1] *)
  mesh : int;  (** mesh side length (8 on the SW26010's 8x8 grid) *)
  cost : Cost.t;  (** work charged to this CPE *)
  ldm : Ldm.t;  (** scratchpad allocator *)
  mutable slow : float;  (** compute-time multiplier (1.0 = healthy) *)
  mutable stall_s : float;  (** one-off stall charged per kernel *)
}

(* The CPE grid is square on every known Sunway part; round up so a
   non-square count still yields a usable row/column decomposition. *)
let mesh_of_count n =
  let m = int_of_float (Float.round (sqrt (float_of_int n))) in
  let m = if m * m < n then m + 1 else m in
  max 1 m

(** [create cfg id] is a fresh CPE with an empty scratchpad. *)
let create (cfg : Config.t) id =
  if id < 0 || id >= cfg.cpe_count then invalid_arg "Cpe.create: bad id";
  {
    id;
    mesh = mesh_of_count cfg.cpe_count;
    cost = Cost.create ();
    ldm = Ldm.create ~capacity:cfg.ldm_bytes;
    slow = 1.0;
    stall_s = 0.0;
  }

(** [row t] is the mesh row of this CPE. *)
let row t = t.id / t.mesh

(** [col t] is the mesh column of this CPE. *)
let col t = t.id mod t.mesh

(** [reset t] clears the cost counters and releases all LDM.  Fault
    state ([slow]/[stall_s]) survives a reset on purpose: kernels reset
    the group before running, and an injected degradation must persist
    across that ({!Core_group.apply_faults} heals every CPE first). *)
let reset t =
  Cost.reset t.cost;
  Ldm.reset t.ldm

(** [compute_time cfg t] is the simulated compute time of this CPE.
    With the healthy defaults ([slow = 1.0], [stall_s = 0.0]) this is
    bit-identical to the bare cost-model time: [x *. 1.0 = x] and
    [x +. 0.0 = x] for the non-negative times involved. *)
let compute_time cfg t = (Cost.cpe_compute_time cfg t.cost *. t.slow) +. t.stall_s
