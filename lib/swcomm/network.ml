(** TaihuLight interconnect model.

    The machine connects 40,960 nodes with a two-level fat-tree;
    256-node supernodes have full bisection internally and cross-level
    traffic shares uplinks.  The model reduces to per-message costs:
    a startup latency, a per-byte wire cost, and — for plain MPI — the
    four user/kernel/NIC copies the paper's Section 3.6 describes,
    which RDMA eliminates. *)

type transport = Mpi | Rdma

type t = {
  mpi_latency : float;  (** per-message startup, MPI path (s) *)
  rdma_latency : float;  (** per-message startup, RDMA path (s) *)
  link_bw : float;  (** effective per-direction wire bandwidth (B/s) *)
  copy_bw : float;  (** host memory bandwidth for the MPI copies (B/s) *)
  mpi_copies : int;  (** copies on the MPI path (user->kernel->NIC x2) *)
  supernode : int;  (** ranks per supernode (full bisection inside) *)
  uplink_factor : float;  (** wire-cost multiplier across supernodes *)
}

(** Default parameters: ~0.5 us RDMA latency, ~4 us MPI latency,
    4 GB/s effective per-direction bandwidth, 8 GB/s host copies, 4
    copies on the MPI path, 256-rank supernodes with a 2x uplink
    penalty for traffic that leaves the supernode. *)
let default =
  {
    mpi_latency = 4.0e-6;
    rdma_latency = 0.5e-6;
    link_bw = 4.0e9;
    copy_bw = 8.0e9;
    mpi_copies = 4;
    supernode = 256;
    uplink_factor = 2.0;
  }

(** [of_platform p] is the interconnect as described by the platform
    record: link latencies/bandwidth and supernode shape come from the
    [net_*] fields, the MPI-path copy bandwidth is the platform's
    MPE-side memory bandwidth, and the 4-copy MPI protocol overhead is
    a software fact that does not vary per machine.  For
    {!Swarch.Platform.sw26010} this reproduces {!default} exactly. *)
let of_platform (p : Swarch.Platform.t) =
  {
    mpi_latency = p.Swarch.Platform.net_mpi_latency_s;
    rdma_latency = p.Swarch.Platform.net_rdma_latency_s;
    link_bw = p.Swarch.Platform.net_link_bw;
    copy_bw = p.Swarch.Platform.mpe_mem_bw;
    mpi_copies = default.mpi_copies;
    supernode = p.Swarch.Platform.net_supernode;
    uplink_factor = p.Swarch.Platform.net_uplink_factor;
  }

(** [message t transport ~bytes ~cross_supernode] is the simulated
    seconds to deliver one point-to-point message. *)
let message t transport ~bytes ~cross_supernode =
  let b = float_of_int bytes in
  let wire =
    b /. t.link_bw *. if cross_supernode then t.uplink_factor else 1.0
  in
  match transport with
  | Rdma -> t.rdma_latency +. wire
  | Mpi ->
      t.mpi_latency +. wire +. (float_of_int t.mpi_copies *. b /. t.copy_bw)

(** [allreduce t transport ~ranks ~bytes] is the time of a recursive-
    doubling allreduce over [ranks] processes. *)
let allreduce t transport ~ranks ~bytes =
  if ranks <= 1 then 0.0
  else begin
    let rounds = int_of_float (Float.ceil (Float.log2 (float_of_int ranks))) in
    let acc = ref 0.0 in
    for round = 0 to rounds - 1 do
      (* partner distance doubles each round; far rounds cross supernodes *)
      let cross = 1 lsl round >= t.supernode in
      acc := !acc +. (2.0 *. message t transport ~bytes ~cross_supernode:cross)
    done;
    !acc
  end
