(** Shared infrastructure of the short-range force kernels.

    A {!system} snapshot pins the cluster-ordered main-memory arrays
    (particle packages, force storage) that every kernel variant works
    on, together with precomputed interaction constants and exclusion
    masks.  Each kernel produces a {!result}; tests require all
    variants to agree with the {!Mdcore.Nonbonded} reference within
    single-precision tolerance. *)

module Cluster = Mdcore.Cluster
module Topology = Mdcore.Topology
module Box = Mdcore.Box
module Nonbonded = Mdcore.Nonbonded

(** Number of floats of force storage per cluster (4 particles x 3). *)
let force_floats = Cluster.size * 3

(** Bytes of one cluster's force block. *)
let force_bytes = force_floats * 4

(** Packages per read-cache line / force blocks per write-cache line
    (Figures 3-4).  Line shape is a copy-granularity choice, not a
    machine constant, so it stays fixed across platforms. *)
let read_line_elts = 8

let write_line_elts = 8

(** Bytes of one write-cache line (8 force blocks). *)
let write_line_bytes = write_line_elts * force_bytes

(** [read_lines cfg] is the read-cache depth (Figure 3): three
    quarters of the platform's LDM holds j-package lines (64 lines x
    8 packages ~ 48 KB on the SW26010, sized to fill the LDM left over
    by the write cache). *)
let read_lines (cfg : Swarch.Config.t) =
  max 1 (cfg.ldm_bytes * 3 / 4 / (read_line_elts * Package.bytes))

(** [write_lines cfg] is the write-cache depth (Figure 4): three
    sixteenths of the LDM holds force-block lines (32 lines x 8 blocks
    on the SW26010). *)
let write_lines (cfg : Swarch.Config.t) =
  max 1 (cfg.ldm_bytes * 3 / 16 / (write_line_elts * force_bytes))

type system = {
  cfg : Swarch.Config.t;
  box : Box.t;
  params : Nonbonded.params;
  cl : Cluster.t;
  topo : Topology.t;
  ff : Mdcore.Forcefield.t;
  n_clusters : int;
  pkg_aos : float array;  (** main memory: AoS packages (Fig 2) *)
  pkg_soa : float array;  (** main memory: SoA packages (Fig 6) *)
  excl : (int, int) Hashtbl.t;
      (** cluster-pair key -> 16-bit exclusion mask (bit [4*mi+mj]) *)
  krf : float;
  crf : float;
  beta : float;  (** 0 when reaction field is active *)
}

let pair_key ci cj = (ci * 0x40000) + cj

(** [make cfg ~box ~params ~cl ~topo ~ff ~pos] snapshots a system for
    kernel execution: gathers positions/charges/types into both
    package layouts and precomputes exclusion masks per cluster pair. *)
let make (cfg : Swarch.Config.t) ~box ~params ~cl ~topo ~ff ~(pos : Mdcore.Fbuf.t) =
  let charge = topo.Topology.charge and type_of = topo.Topology.type_of in
  let excl = Hashtbl.create 256 in
  Array.iteri
    (fun a partners ->
      Array.iter
        (fun b ->
          let sa = cl.Cluster.inv.(a) and sb = cl.Cluster.inv.(b) in
          let ca = sa / Cluster.size and cb = sb / Cluster.size in
          let ma = sa mod Cluster.size and mb = sb mod Cluster.size in
          let key, bit =
            if ca <= cb then (pair_key ca cb, (4 * ma) + mb)
            else (pair_key cb ca, (4 * mb) + ma)
          in
          let cur = Option.value ~default:0 (Hashtbl.find_opt excl key) in
          Hashtbl.replace excl key (cur lor (1 lsl bit)))
        partners)
    topo.Topology.exclusions;
  let krf, crf =
    match params.Nonbonded.elec with
    | Nonbonded.Reaction_field -> Mdcore.Coulomb.rf_constants ~rc:params.Nonbonded.rcut
    | Nonbonded.Ewald_real _ -> (0.0, 0.0)
  in
  let beta =
    match params.Nonbonded.elec with
    | Nonbonded.Ewald_real b -> b
    | Nonbonded.Reaction_field -> 0.0
  in
  let pkg_aos = Package.pack ~layout:Package.Aos cl ~pos ~charge ~type_of in
  let pkg_soa = Package.pack ~layout:Package.Soa cl ~pos ~charge ~type_of in
  if Swtrace.Trace.enabled () then
    Swtrace.Trace.instant ~cat:"phase-detail" Swtrace.Track.Mpe "package"
      ~args:
        [
          ("clusters", float_of_int cl.Cluster.n_clusters);
          ( "bytes",
            float_of_int (2 * cl.Cluster.n_clusters * Package.bytes) );
        ];
  {
    cfg;
    box;
    params;
    cl;
    topo;
    ff;
    n_clusters = cl.Cluster.n_clusters;
    pkg_aos;
    pkg_soa;
    excl;
    krf;
    crf;
    beta;
  }

(** [excl_mask sys ci cj] is the 16-bit mask of member pairs (bit
    [4*mi + mj]) that must be skipped for cluster pair [(ci, cj)],
    [ci <= cj].  Looked up without an option, so the per-pair call
    allocates nothing. *)
let excl_mask sys ci cj =
  match Hashtbl.find sys.excl (pair_key ci cj) with
  | m -> m
  | exception Not_found -> 0

type acc = {
  mutable e_lj : float;
  mutable e_coul : float;
}
(** Energy accumulators, split into their own all-float record so the
    runtime stores them flat: the per-pair [e_lj <- e_lj +. ...] update
    in the kernel inner loops is then a plain unboxed store.  Inside
    [result] (which also holds a pointer field) the same floats would
    be boxed and every accumulation would allocate. *)

type result = {
  force : float array;  (** cluster-ordered forces, [3] floats per slot *)
  acc : acc;  (** unboxed energy accumulators *)
  mutable pairs_in_cutoff : int;
}

(** [e_lj res] is the accumulated Lennard-Jones energy. *)
let e_lj res = res.acc.e_lj

(** [e_coul res] is the accumulated short-range Coulomb energy. *)
let e_coul res = res.acc.e_coul

(** [empty_result sys] allocates a zeroed result for [sys]. *)
let empty_result sys =
  {
    force = Array.make (sys.n_clusters * force_floats) 0.0;
    acc = { e_lj = 0.0; e_coul = 0.0 };
    pairs_in_cutoff = 0;
  }

(** [scatter_forces sys result dst] adds the cluster-ordered kernel
    forces back onto the per-atom array [dst] (length [3 *
    n_atoms]). *)
let scatter_forces sys result (dst : Mdcore.Fbuf.t) =
  for slot = 0 to sys.topo.Topology.n_atoms - 1 do
    let atom = sys.cl.Cluster.order.(slot) in
    for d = 0 to 2 do
      dst.{(3 * atom) + d} <- dst.{(3 * atom) + d} +. result.force.((3 * slot) + d)
    done
  done

(* [Swarch.Simd.round32], restated here so the pair physics inlines it:
   a call into another module would box its argument and its result *)
let[@inline] r32 x = Int32.float_of_bits (Int32.bits_of_float x)

(** Flops charged for the minimum-image distance computation and
    cut-off test of one particle pair. *)
let flops_distance = 12.0

(** [flops_interaction sys] is the flops charged for the interaction
    math of one in-range pair (inverse square root, LJ polynomial,
    Coulomb term, force scaling and accumulation); the Ewald kernel
    pays extra for the erfc polynomial. *)
let flops_interaction sys =
  match sys.params.Nonbonded.elec with
  | Nonbonded.Reaction_field -> 45.0
  | Nonbonded.Ewald_real _ -> 60.0

type pair_out = {
  p_r2 : float array;  (** in: squared distance *)
  p_qq : float array;  (** in: charge product *)
  p_f : float array;  (** out: force over distance, [f_over_r] *)
  p_e_lj : float array;  (** out: Lennard-Jones energy *)
  p_e_coul : float array;  (** out: short-range Coulomb energy *)
}
(** In- and out-parameters of {!pair_interaction_into}, one lane each.
    The kernels keep one per run; every float travels through these
    arrays, so a per-pair call boxes nothing. *)

(** [fresh_pair_out ()] is a zeroed {!pair_out}. *)
let fresh_pair_out () =
  let lane () = [| 0.0 |] in
  { p_r2 = lane (); p_qq = lane (); p_f = lane (); p_e_lj = lane (); p_e_coul = lane () }

(** [pair_interaction_into sys ~ti ~tj out] computes [f_over_r],
    [e_lj] and [e_coul] of one in-range pair with squared distance
    [out.p_r2.(0)] and charge product [out.p_qq.(0)], through
    single-precision rounding (the optimized kernels run in GROMACS
    "mixed" precision), and stores them in [out].  On return
    [out.p_r2.(0)] holds the rounded distance.  The Ewald term is
    {!Mdcore.Coulomb.ewald_real_into} at one lane, the same function
    the vector kernel runs. *)
let pair_interaction_into sys ~ti ~tj (out : pair_out) =
  let ff = sys.ff in
  let tp = (ti * Array.length ff.Mdcore.Forcefield.types) + tj in
  let c6 = ff.Mdcore.Forcefield.c6.(tp) and c12 = ff.Mdcore.Forcefield.c12.(tp) in
  let r2 = r32 out.p_r2.(0) in
  out.p_r2.(0) <- r2;
  let qq = out.p_qq.(0) in
  let inv_r2 = r32 (1.0 /. r2) in
  let inv_r6 = r32 (inv_r2 *. inv_r2 *. inv_r2) in
  let e_lj = r32 ((c12 *. inv_r6 *. inv_r6) -. (c6 *. inv_r6)) in
  let f_lj =
    r32 (((12.0 *. c12 *. inv_r6 *. inv_r6) -. (6.0 *. c6 *. inv_r6)) *. inv_r2)
  in
  (* the electrostatic force and energy land in [p_f] and [p_e_coul] *)
  (match sys.params.Nonbonded.elec with
  | Nonbonded.Reaction_field ->
      let r = r32 (sqrt r2) in
      out.p_f.(0) <-
        r32 (Mdcore.Forcefield.ke *. qq *. ((1.0 /. (r2 *. r)) -. (2.0 *. sys.krf)));
      out.p_e_coul.(0) <-
        r32 (Mdcore.Forcefield.ke *. qq *. ((1.0 /. r) +. (sys.krf *. r2) -. sys.crf))
  | Nonbonded.Ewald_real beta ->
      Mdcore.Coulomb.ewald_real_into ~beta ~n:1 ~qq:out.p_qq ~r2:out.p_r2
        ~f:out.p_f ~e:out.p_e_coul;
      out.p_f.(0) <- r32 out.p_f.(0);
      out.p_e_coul.(0) <- r32 out.p_e_coul.(0));
  out.p_f.(0) <- r32 (f_lj +. out.p_f.(0));
  out.p_e_lj.(0) <- e_lj

(** [partition n_clusters n_cpes cpe] is the contiguous [lo, hi) block
    of i-clusters assigned to CPE [cpe] — the outer-loop partitioning
    of Algorithm 1 across the mesh. *)
let partition n_clusters n_cpes cpe =
  let per = (n_clusters + n_cpes - 1) / n_cpes in
  let lo = min n_clusters (cpe * per) in
  let hi = min n_clusters (lo + per) in
  (lo, hi)

(** [alive_ids n_cpes dead] is the sorted array of CPE ids that survive
    the permanent failures listed in [dead]. *)
let alive_ids n_cpes dead =
  Array.init n_cpes Fun.id
  |> Array.to_list
  |> List.filter (fun id -> not (List.mem id dead))
  |> Array.of_list

(** [partition_alive n_clusters ~alive cpe] re-stripes the i-cluster
    blocks over the surviving CPEs: a dead CPE gets the empty slab
    [(0, 0)]; survivor number [k] (in id order) gets block [k] of the
    {!partition} over [Array.length alive] workers.  With no failures
    this is exactly [partition n_clusters n_cpes cpe]. *)
let partition_alive n_clusters ~alive cpe =
  let n_alive = Array.length alive in
  let rec rank k = if k >= n_alive then None
    else if alive.(k) = cpe then Some k
    else rank (k + 1)
  in
  match rank 0 with
  | None -> (0, 0)
  | Some k -> partition n_clusters n_alive k
