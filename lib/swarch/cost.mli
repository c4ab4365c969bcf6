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
(** All fields are [float] on purpose: an all-float record is stored
    flat by the OCaml runtime, so charging (a [mutable] field store)
    never allocates a box.  Counts are exact in a [float] far beyond
    any realistic run length (2{^53} events). *)

(** [create ()] is a zeroed accumulator. *)
val create : unit -> t

(** [reset t] zeroes all counters in place. *)
val reset : t -> unit

(** [add ~into src] accumulates [src] into [into]. *)
val add : into:t -> t -> unit

(** [flops t n] charges [n] scalar floating-point operations. *)
val flops : t -> float -> unit

(** [simd t n] charges [n] 4-lane vector instructions. *)
val simd : t -> float -> unit

(** [int_ops t n] charges [n] integer/bit manipulation operations. *)
val int_ops : t -> float -> unit

(** [gld t n] charges [n] global (main-memory) loads. *)
val gld : t -> int -> unit

(** [gst t n] charges [n] global (main-memory) stores. *)
val gst : t -> int -> unit

(** [transactions t] is [t.dma_transactions] as an [int]. *)
val transactions : t -> int

(** [mpe_flops t n] charges [n] operations executed on the MPE. *)
val mpe_flops : t -> float -> unit

(** [mpe_mem t bytes] charges [bytes] of MPE-side memory traffic. *)
val mpe_mem : t -> float -> unit

(** [cpe_compute_time cfg t] is the simulated seconds one CPE spends on
    the compute instructions recorded in [t] (DMA time excluded). *)
val cpe_compute_time : Config.t -> t -> float

(** [mpe_time cfg t] is the simulated seconds of MPE execution recorded
    in [t]. *)
val mpe_time : Config.t -> t -> float
