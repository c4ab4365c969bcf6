(** TaihuLight interconnect model.

    Per-message costs on the two-level fat-tree: a startup latency, a
    per-byte wire cost, and — for plain MPI — the four
    user/kernel/NIC copies of Section 3.6, which RDMA eliminates. *)

type transport = Mpi | Rdma

type t = {
  mpi_latency : float;  (** per-message startup, MPI path (s) *)
  rdma_latency : float;  (** per-message startup, RDMA path (s) *)
  link_bw : float;  (** effective per-direction wire bandwidth (B/s) *)
  copy_bw : float;  (** host memory bandwidth for the MPI copies (B/s) *)
  mpi_copies : int;  (** copies on the MPI path *)
  supernode : int;  (** ranks per supernode (full bisection inside) *)
  uplink_factor : float;  (** wire-cost multiplier across supernodes *)
}

(** Default parameters (see the implementation for the calibration). *)
val default : t

(** [of_platform p] derives the interconnect from a platform record
    ([net_*] link parameters, MPE memory bandwidth for the MPI
    copies); reproduces {!default} exactly for the SW26010. *)
val of_platform : Swarch.Platform.t -> t

(** [message t transport ~bytes ~cross_supernode] is the simulated
    seconds to deliver one point-to-point message. *)
val message : t -> transport -> bytes:int -> cross_supernode:bool -> float

(** [allreduce t transport ~ranks ~bytes] is the time of a recursive-
    doubling allreduce over [ranks] processes. *)
val allreduce : t -> transport -> ranks:int -> bytes:int -> float
