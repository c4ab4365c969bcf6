(** Cost accumulator for one simulated processing element.

    Every simulated action (floating-point operation, SIMD operation,
    DMA transfer, global load/store) is charged to a [Cost.t].  At the
    end of a kernel the core group converts accumulated counts into
    simulated seconds using the machine description in {!Config}. *)

type t = {
  mutable scalar_flops : float;  (** scalar floating-point operations *)
  mutable simd_ops : float;  (** 4-lane vector operations issued *)
  mutable int_ops : float;  (** integer/bit operations (tag math, marks) *)
  mutable dma_time_s : float;  (** seconds of DMA bus time consumed *)
  mutable dma_bytes : float;  (** bytes moved by DMA *)
  mutable dma_transactions : float;  (** number of DMA transfers *)
  mutable gld_count : float;  (** global loads issued (high latency) *)
  mutable gst_count : float;  (** global stores issued (high latency) *)
  mutable mpe_flops : float;  (** work executed on the MPE *)
  mutable mpe_mem_bytes : float;  (** MPE-side memory traffic *)
}
(* All-float on purpose: the runtime stores all-float records flat, so
   a charge (a mutable field store) never allocates a box.  A mixed
   int/float record would box every float store, which puts one minor
   allocation in the innermost pair loop of every kernel. *)

(** [create ()] is a zeroed accumulator. *)
let create () =
  {
    scalar_flops = 0.0;
    simd_ops = 0.0;
    int_ops = 0.0;
    dma_time_s = 0.0;
    dma_bytes = 0.0;
    dma_transactions = 0.0;
    gld_count = 0.0;
    gst_count = 0.0;
    mpe_flops = 0.0;
    mpe_mem_bytes = 0.0;
  }

(** [reset t] zeroes all counters in place. *)
let reset t =
  t.scalar_flops <- 0.0;
  t.simd_ops <- 0.0;
  t.int_ops <- 0.0;
  t.dma_time_s <- 0.0;
  t.dma_bytes <- 0.0;
  t.dma_transactions <- 0.0;
  t.gld_count <- 0.0;
  t.gst_count <- 0.0;
  t.mpe_flops <- 0.0;
  t.mpe_mem_bytes <- 0.0

(** [add ~into src] accumulates [src] into [into]. *)
let add ~into src =
  into.scalar_flops <- into.scalar_flops +. src.scalar_flops;
  into.simd_ops <- into.simd_ops +. src.simd_ops;
  into.int_ops <- into.int_ops +. src.int_ops;
  into.dma_time_s <- into.dma_time_s +. src.dma_time_s;
  into.dma_bytes <- into.dma_bytes +. src.dma_bytes;
  into.dma_transactions <- into.dma_transactions +. src.dma_transactions;
  into.gld_count <- into.gld_count +. src.gld_count;
  into.gst_count <- into.gst_count +. src.gst_count;
  into.mpe_flops <- into.mpe_flops +. src.mpe_flops;
  into.mpe_mem_bytes <- into.mpe_mem_bytes +. src.mpe_mem_bytes

(* Charging helpers.  Kernels call these instead of touching fields so
   that the charging policy is defined in exactly one place. *)

(** [flops t n] charges [n] scalar floating-point operations. *)
let flops t n = t.scalar_flops <- t.scalar_flops +. n

(** [simd t n] charges [n] 4-lane vector instructions. *)
let simd t n = t.simd_ops <- t.simd_ops +. n

(** [int_ops t n] charges [n] integer/bit manipulation operations. *)
let int_ops t n = t.int_ops <- t.int_ops +. n

(** [gld t n] charges [n] global (main-memory) loads. *)
let gld t n =
  t.gld_count <- t.gld_count +. float_of_int n;
  if Swtrace.Trace.enabled () then
    Swtrace.Trace.counter_here ~cat:"mem" "gld" t.gld_count

(** [gst t n] charges [n] global (main-memory) stores. *)
let gst t n =
  t.gst_count <- t.gst_count +. float_of_int n;
  if Swtrace.Trace.enabled () then
    Swtrace.Trace.counter_here ~cat:"mem" "gst" t.gst_count

(** [transactions t] is [t.dma_transactions] as an [int]. *)
let transactions t = int_of_float t.dma_transactions

(** [mpe_flops t n] charges [n] operations executed on the MPE. *)
let mpe_flops t n = t.mpe_flops <- t.mpe_flops +. n

(** [mpe_mem t bytes] charges [bytes] of MPE-side memory traffic. *)
let mpe_mem t bytes = t.mpe_mem_bytes <- t.mpe_mem_bytes +. bytes

(** [cpe_compute_time cfg t] is the simulated seconds one CPE spends on
    the compute instructions recorded in [t] (DMA time excluded). *)
let cpe_compute_time (cfg : Config.t) t =
  let fp_cycles = t.scalar_flops /. cfg.cpe_flops_per_cycle in
  let simd_cycles = t.simd_ops in
  let int_cycles = t.int_ops in
  let gld_time = (t.gld_count +. t.gst_count) *. cfg.gld_latency_s in
  ((fp_cycles +. simd_cycles +. int_cycles) /. cfg.cpe_freq_hz) +. gld_time

(** [mpe_time cfg t] is the simulated seconds of MPE execution recorded
    in [t]: compute at the MPE issue width plus memory traffic at the
    MPE bandwidth. *)
let mpe_time (cfg : Config.t) t =
  (t.mpe_flops /. cfg.mpe_flops_per_cycle /. cfg.mpe_freq_hz)
  +. (t.mpe_mem_bytes /. cfg.mpe_mem_bw)
