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
let create (cfg : Config.t) =
  Config.validate cfg;
  (* Push the machine's CPE count down to the tracing layer so the
     trace grows one lane per compute element of this platform. *)
  Swtrace.Track.set_cpe_tracks cfg.cpe_count;
  {
    cfg;
    mpe = Mpe.create ();
    cpes = Array.init cfg.cpe_count (fun i -> Cpe.create cfg i);
  }

(** [reset t] clears every cost accumulator in the group. *)
let reset t =
  Mpe.reset t.mpe;
  Array.iter Cpe.reset t.cpes

(** [cpe t i] is CPE number [i]. *)
let cpe t i = t.cpes.(i)

(** [iter_cpes t f] runs [f] on every CPE in mesh order.  This is the
    simulator's stand-in for [athread_spawn]: the per-CPE work executes
    sequentially but is costed as parallel.  While [f] runs, the
    tracing subsystem's ambient track points at the CPE whose slice is
    executing, so scratchpad and DMA events land on the right lane. *)
let iter_cpes t f =
  if Swtrace.Trace.enabled () then
    Array.iter
      (fun c ->
        Swtrace.Trace.with_track
          (Swtrace.Track.Cpe (c.Cpe.id mod Swtrace.Track.cpe_tracks ()))
          (fun () -> f c))
      t.cpes
  else Array.iter f t.cpes

(** [apply_faults t ~slow ~stall] installs a degraded-machine state:
    every CPE is first healed, then the listed (id, factor) slowdowns
    and (id, seconds) stalls applied.  Plain data so swarch stays below
    swfault in the layer stack. *)
let apply_faults t ~slow ~stall =
  Array.iter
    (fun c ->
      c.Cpe.slow <- 1.0;
      c.Cpe.stall_s <- 0.0)
    t.cpes;
  List.iter (fun (id, f) -> (cpe t id).Cpe.slow <- f) slow;
  List.iter (fun (id, s) -> (cpe t id).Cpe.stall_s <- s) stall

(** [total_cost t] is the sum of all CPE costs (MPE excluded). *)
let total_cost t =
  let acc = Cost.create () in
  Array.iter (fun c -> Cost.add ~into:acc c.Cpe.cost) t.cpes;
  acc

(** [max_compute_time t] is the slowest CPE's compute time — the
    parallel-region critical path. *)
let max_compute_time t =
  Array.fold_left
    (fun m c -> Float.max m (Cpe.compute_time t.cfg c))
    0.0 t.cpes

(** [dma_time t] is the aggregate DMA bus time of the whole group. *)
let dma_time t =
  let total =
    Array.fold_left (fun s c -> s +. c.Cpe.cost.Cost.dma_time_s) 0.0 t.cpes
  in
  total /. t.cfg.dma_channels

(** [elapsed t] is the simulated elapsed seconds of everything charged
    since the last [reset]: parallel CPE compute, shared-bus DMA and
    serial MPE work. *)
let elapsed t =
  max_compute_time t +. dma_time t +. Mpe.time t.cfg t.mpe

(** [load_imbalance t] is the ratio of the slowest CPE's compute time
    to the mean compute time (1.0 = perfectly balanced). *)
let load_imbalance t =
  let times = Array.map (Cpe.compute_time t.cfg) t.cpes in
  let sum = Array.fold_left ( +. ) 0.0 times in
  let n = float_of_int (Array.length times) in
  if sum <= 0.0 then 1.0
  else Array.fold_left Float.max 0.0 times *. n /. sum
