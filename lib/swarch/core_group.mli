(** One SW26010 core group: an MPE plus 64 CPEs sharing a DMA bus.

    The simulator executes each CPE's slice of a kernel sequentially
    (the simulation is deterministic), then combines the per-CPE costs
    into a simulated elapsed time:

    - compute time is the {e maximum} over CPEs (they run in parallel);
    - DMA time is the {e sum} over CPEs divided by the configured
      channel concurrency (the bus is shared and Table 2 bandwidth is
      the aggregate achievable figure);
    - MPE time is added serially (the paper's kernels synchronize MPE
      and CPE phases). *)

type t = {
  cfg : Config.t;
  mpe : Mpe.t;
  cpes : Cpe.t array;
}

(** [create cfg] is a fresh core group described by [cfg]. *)
val create : Config.t -> t

(** [reset t] clears every cost accumulator in the group. *)
val reset : t -> unit

(** [cpe t i] is CPE number [i]. *)
val cpe : t -> int -> Cpe.t

(** [iter_cpes t f] runs [f] on every CPE in mesh order — the
    simulator's stand-in for [athread_spawn]. *)
val iter_cpes : t -> (Cpe.t -> unit) -> unit

(** [apply_faults t ~slow ~stall] installs a degraded-machine state:
    heals every CPE, then applies the listed (id, factor) compute
    slowdowns and (id, seconds) per-kernel stalls. *)
val apply_faults : t -> slow:(int * float) list -> stall:(int * float) list -> unit

(** [total_cost t] is the sum of all CPE costs (MPE excluded). *)
val total_cost : t -> Cost.t

(** [max_compute_time t] is the slowest CPE's compute time — the
    parallel-region critical path. *)
val max_compute_time : t -> float

(** [dma_time t] is the aggregate DMA bus time of the whole group. *)
val dma_time : t -> float

(** [elapsed t] is the simulated elapsed seconds of everything charged
    since the last [reset]. *)
val elapsed : t -> float

(** [load_imbalance t] is the ratio of the slowest CPE's compute time
    to the mean (1.0 = perfectly balanced). *)
val load_imbalance : t -> float
