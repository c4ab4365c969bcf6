(** The CPE short-range force engine.

    One parameterized driver implements every CPE kernel variant as a
    combination of three strategies:

    - {b read path}: direct DMA per package, or through the
      direct-mapped read cache (Figure 3);
    - {b write path}: direct read-modify-write of the CPE's force copy
      (Pkg), the deferred-update write cache (Figure 4) with or without
      update marks (Figure 5), owner-only direct writes over a full
      pair list (the RCA baseline, Algorithm 2), or shipping every
      update to the MPE (the USTC baseline);
    - {b compute}: scalar, or platform-width SIMD over the i-cluster
      with the Figure 7 shuffle transpose in the post-treatment.

    The driver executes each CPE's slice sequentially but charges costs
    as parallel hardware would incur them; forces and energies are real
    results checked against the {!Mdcore.Nonbonded} reference. *)

module K = Kernel_common
module Cluster = Mdcore.Cluster
module Pair_list = Mdcore.Pair_list
module Cost = Swarch.Cost
module Dma = Swarch.Dma
module Simd = Swarch.Simd

type write_path =
  | Rmw_direct  (** Pkg: read-modify-write the copy per cluster pair *)
  | Deferred of { marks : bool }  (** Cache/Vec/Rma (no marks) and Mark *)
  | Owner_only  (** RCA: full list, each CPE writes only its i-clusters *)
  | Mpe_collect  (** USTC: the MPE applies every update *)

type spec = {
  cached_read : bool;
  write : write_path;
  vector : bool;
}

(** [spec_of_variant v] maps a CPE variant to its strategies; raises
    for [Ori], which runs on the MPE (see {!Kernel_ori}). *)
let spec_of_variant = function
  | Variant.Pkg -> { cached_read = false; write = Rmw_direct; vector = false }
  | Variant.Cache -> { cached_read = true; write = Deferred { marks = false }; vector = false }
  | Variant.Vec -> { cached_read = true; write = Deferred { marks = false }; vector = true }
  | Variant.Mark -> { cached_read = true; write = Deferred { marks = true }; vector = true }
  | Variant.Rma -> { cached_read = true; write = Deferred { marks = false }; vector = true }
  | Variant.Rca -> { cached_read = true; write = Owner_only; vector = false }
  | Variant.Ustc -> { cached_read = true; write = Mpe_collect; vector = false }
  | Variant.Ori -> invalid_arg "Kernel_cpe: Ori runs on the MPE"

type stats = {
  read_stats : Swcache.Stats.t option;  (** aggregated read-cache stats *)
  write_stats : Swcache.Stats.t option;  (** aggregated write-cache stats *)
  mutable marked_lines : int;  (** marked copy lines across all CPEs *)
  mutable total_lines : int;  (** total copy lines across all CPEs *)
}

(* --- inner pair loops -------------------------------------------------- *)

(* No float crosses a call in the per-pair and per-block loops below:
   the library is compiled without cross-module inlining, so a float
   argument or result of another module's function (or of a closure)
   is boxed on the heap.  Floats move through arrays instead — the
   pair-physics scratch, the FB block, the vector gathers and stores —
   and computed cost charges are hoisted into the per-slice scratch. *)

(* Minimum-image fold of one displacement component (scalar). *)
let[@inline] mi d l = d -. (l *. Float.round (d /. l))

(* The scalar member-pair loop of one cluster pair, over AoS packages
   (Fig 2: per particle [x y z q t pad]).  Each pair's j-side increment
   is staged in [inc] and applied by [apply_b ci cj mj]; FA accumulates
   in [fa].  [scale] weights energies (0.5 for duplicated RCA
   directions).  [pout] is the caller's reusable pair-physics scratch. *)
let scalar_pairs sys (cpe : Swarch.Cpe.t) (res : K.result) ~ci ~cj ~ibuf ~jbuf
    ~joff ~fa ~inc ~pout ~apply_b ~scale =
  let cost = cpe.Swarch.Cpe.cost in
  let box = sys.K.box in
  let lx = box.K.Box.lx and ly = box.K.Box.ly and lz = box.K.Box.lz in
  let rcut2 = sys.K.params.K.Nonbonded.rcut *. sys.K.params.K.Nonbonded.rcut in
  let ni = Cluster.count sys.K.cl ci and nj = Cluster.count sys.K.cl cj in
  let mask = K.excl_mask sys (min ci cj) (max ci cj) in
  let fpp = Package.floats_per_particle in
  for mi_ = 0 to ni - 1 do
    let ia = mi_ * fpp in
    let mj_start = if ci = cj then mi_ + 1 else 0 in
    for mj = mj_start to nj - 1 do
      let ja = joff + (mj * fpp) in
      let bit = if ci <= cj then (4 * mi_) + mj else (4 * mj) + mi_ in
      if mask land (1 lsl bit) = 0 then begin
        Cost.flops cost K.flops_distance;
        let dx = mi (ibuf.(ia) -. jbuf.(ja)) lx
        and dy = mi (ibuf.(ia + 1) -. jbuf.(ja + 1)) ly
        and dz = mi (ibuf.(ia + 2) -. jbuf.(ja + 2)) lz in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 <= rcut2 && r2 > 0.0 then begin
          Cost.flops cost (K.flops_interaction sys);
          pout.K.p_r2.(0) <- r2;
          pout.K.p_qq.(0) <- ibuf.(ia + 3) *. jbuf.(ja + 3);
          K.pair_interaction_into sys
            ~ti:(int_of_float ibuf.(ia + 4))
            ~tj:(int_of_float jbuf.(ja + 4))
            pout;
          let f = pout.K.p_f.(0) in
          res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. (scale *. pout.K.p_e_lj.(0));
          res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. (scale *. pout.K.p_e_coul.(0));
          res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + 1;
          let fx = f *. dx and fy = f *. dy and fz = f *. dz in
          fa.((3 * mi_) + 0) <- fa.((3 * mi_) + 0) +. fx;
          fa.((3 * mi_) + 1) <- fa.((3 * mi_) + 1) +. fy;
          fa.((3 * mi_) + 2) <- fa.((3 * mi_) + 2) +. fz;
          inc.(0) <- -.fx;
          inc.(1) <- -.fy;
          inc.(2) <- -.fz;
          apply_b ci cj mj
        end
      end
    done
  done

(* Preallocated register file of the vector kernel: every vector the
   inner loop touches lives here, allocated once per CPE slice and
   reused for every cluster pair — the loop itself never allocates a
   vector.  Mirrors the LDM discipline of the real kernels: a CPE has
   a fixed set of vector registers, not a heap. *)
type vscratch = {
  (* constants, broadcast once per slice (free) *)
  v_rcut2 : Simd.vec;
  v_lx : Simd.vec;
  v_ly : Simd.vec;
  v_lz : Simd.vec;
  v_inv_lx : Simd.vec;
  v_inv_ly : Simd.vec;
  v_inv_lz : Simd.vec;
  v_one : Simd.vec;
  v_twelve : Simd.vec;
  v_six : Simd.vec;
  v_ke : Simd.vec;
  v_two_krf : Simd.vec;
  v_krf : Simd.vec;
  v_crf : Simd.vec;
  (* i-cluster registers (loaded once per i-cluster) and FA *)
  v_xi : Simd.vec;
  v_yi : Simd.vec;
  v_zi : Simd.vec;
  v_qi : Simd.vec;
  v_fa_x : Simd.vec;
  v_fa_y : Simd.vec;
  v_fa_z : Simd.vec;
  (* per-block temporaries *)
  v_mask : Simd.vec;
  v_xj : Simd.vec;
  v_yj : Simd.vec;
  v_zj : Simd.vec;
  v_qj : Simd.vec;
  v_dx : Simd.vec;
  v_dy : Simd.vec;
  v_dz : Simd.vec;
  v_t1 : Simd.vec;
  v_t2 : Simd.vec;
  v_r2 : Simd.vec;
  v_in_range : Simd.vec;
  v_active : Simd.vec;
  v_c6 : Simd.vec;
  v_c12 : Simd.vec;
  v_r2_safe : Simd.vec;
  v_inv_r : Simd.vec;
  v_inv_r2 : Simd.vec;
  v_inv_r6 : Simd.vec;
  v_inv_r12 : Simd.vec;
  v_e_lj : Simd.vec;
  v_f_lj : Simd.vec;
  v_keqq : Simd.vec;
  v_f_el : Simd.vec;
  v_e_el : Simd.vec;
  v_f : Simd.vec;
  v_fx : Simd.vec;
  v_fy : Simd.vec;
  v_fz : Simd.vec;
  (* 4-lane targets of the narrow + Figure 7 transpose post-treatment *)
  v_nx : Simd.vec;
  v_ny : Simd.vec;
  v_nz : Simd.vec;
  v_fa12 : float array;
  (* lane index tables of the gathers *)
  lane_id : int array;  (** lane [l] -> [l] *)
  i_lane : int array;  (** lane -> its i-member (low two bits, Fig 6) *)
  j_lane : int array;  (** lane -> its j-member in this block, clamped *)
  tp_lane : int array;  (** lane -> its LJ type-pair table index *)
  (* LDM staging *)
  excl : float array;
      (** per cluster pair, entry [Cluster.size * jm + im]: 1.0 where
          the member pair interacts (the lane mask before the cut-off) *)
  a_qq : float array;  (** Ewald lanes: charge products *)
  a_r2 : float array;  (** Ewald lanes: guarded squared distances *)
  a_f : float array;  (** Ewald lanes: force over distance *)
  a_e : float array;  (** Ewald lanes: energies *)
  sums : float array;  (** horizontal-sum results *)
  (* cost charges computed once per slice *)
  c_mask : float;  (** int ops of one block's lane-mask load *)
  c_lanes : float;  (** int ops of one block's LJ table gather *)
  c_ewald : float;  (** vector ops of one block's erfc polynomial *)
}

let make_vscratch sys lanes =
  let v () = Simd.zero lanes in
  let splat x =
    let r = v () in
    Simd.splat_into r x;
    r
  in
  let box = sys.K.box and rcut = sys.K.params.K.Nonbonded.rcut in
  let jblk = lanes / Cluster.size in
  {
    v_rcut2 = splat (rcut *. rcut);
    v_lx = splat box.K.Box.lx; v_ly = splat box.K.Box.ly; v_lz = splat box.K.Box.lz;
    v_inv_lx = splat (1.0 /. box.K.Box.lx);
    v_inv_ly = splat (1.0 /. box.K.Box.ly);
    v_inv_lz = splat (1.0 /. box.K.Box.lz);
    v_one = splat 1.0; v_twelve = splat 12.0; v_six = splat 6.0;
    v_ke = splat Mdcore.Forcefield.ke;
    v_two_krf = splat (2.0 *. sys.K.krf); v_krf = splat sys.K.krf;
    v_crf = splat sys.K.crf;
    v_xi = v (); v_yi = v (); v_zi = v (); v_qi = v ();
    v_fa_x = v (); v_fa_y = v (); v_fa_z = v ();
    v_mask = v (); v_xj = v (); v_yj = v (); v_zj = v (); v_qj = v ();
    v_dx = v (); v_dy = v (); v_dz = v (); v_t1 = v (); v_t2 = v ();
    v_r2 = v (); v_in_range = v (); v_active = v ();
    v_c6 = v (); v_c12 = v (); v_r2_safe = v ();
    v_inv_r = v (); v_inv_r2 = v (); v_inv_r6 = v (); v_inv_r12 = v ();
    v_e_lj = v (); v_f_lj = v (); v_keqq = v ();
    v_f_el = v (); v_e_el = v (); v_f = v ();
    v_fx = v (); v_fy = v (); v_fz = v ();
    v_nx = Simd.zero Cluster.size;
    v_ny = Simd.zero Cluster.size;
    v_nz = Simd.zero Cluster.size;
    v_fa12 = Array.make K.force_floats 0.0;
    lane_id = Array.init lanes Fun.id;
    i_lane = Array.init lanes (fun l -> l mod Cluster.size);
    j_lane = Array.make lanes 0;
    tp_lane = Array.make lanes 0;
    excl = Array.make (Cluster.size * Cluster.size) 0.0;
    a_qq = Array.make lanes 0.0;
    a_r2 = Array.make lanes 0.0;
    a_f = Array.make lanes 0.0;
    a_e = Array.make lanes 0.0;
    sums = Array.make 3 0.0;
    c_mask = 2.0 *. float_of_int jblk;
    c_lanes = float_of_int lanes;
    c_ewald = 8.0 *. float_of_int jblk;
  }

(* [load_i s ibuf] loads the i-cluster registers from the SoA package
   [ibuf] (Fig 6: [x1..x4 | y1.. | z1.. | q1.. | t1.. | pad]), once per
   i-cluster; free. *)
let load_i s ibuf =
  Simd.gather_into s.v_xi ibuf 0 s.i_lane;
  Simd.gather_into s.v_yi ibuf Cluster.size s.i_lane;
  Simd.gather_into s.v_zi ibuf (2 * Cluster.size) s.i_lane;
  Simd.gather_into s.v_qi ibuf (3 * Cluster.size) s.i_lane

(* in-place minimum image: d <- d - l * round (d * inv_l) *)
let mi_v cost s d l inv_l =
  Simd.mul_into cost s.v_t1 d inv_l;
  Simd.round_into cost s.v_t1 s.v_t1;
  Simd.mul_into cost s.v_t1 s.v_t1 l;
  Simd.sub_into cost d d s.v_t1

(* Vectorized member-pair loop, lane-count parametric.  The platform's
   SIMD width is one or two clusters: the low two bits of a lane
   select the i-member (Fig 6) and the upper bits select one of
   [lanes / Cluster.size] j-members processed per vector block (1 on
   the 4-lane SW26010, 2 on the 8-lane SW26010-Pro).  Exclusion,
   padding, self and cut-off handling all fold into one lane mask.
   Every operation runs in place on [s], with the i registers already
   loaded by {!load_i}; same arithmetic, same order and same charges
   as the historical allocating loop.  FA accumulates in
   [s.v_fa_x/y/z]; FB increments go straight into the slice's [fb]
   block (every vector variant writes through the deferred cache). *)
let vector_pairs sys (cpe : Swarch.Cpe.t) (res : K.result) ~ci ~cj ~ibuf ~jbuf
    ~joff ~(s : vscratch) ~fb ~fb_used =
  let cost = cpe.Swarch.Cpe.cost in
  let lanes = Array.length s.lane_id in
  let jblk = lanes / Cluster.size in
  let ni = Cluster.count sys.K.cl ci and nj = Cluster.count sys.K.cl cj in
  let mask_bits = K.excl_mask sys (min ci cj) (max ci cj) in
  (* the pair's lane mask, staged once: lane [l] of block [jb] pairs
     i-member [l mod 4] with j-member [jb * jblk + l / 4], which is
     entry [jb * lanes + l] *)
  for jm = 0 to Cluster.size - 1 do
    for im = 0 to Cluster.size - 1 do
      s.excl.((Cluster.size * jm) + im) <-
        (if im >= ni || jm >= nj then 0.0
         else if ci = cj && jm <= im then 0.0
         else
           let bit =
             if ci <= cj then (Cluster.size * im) + jm
             else (Cluster.size * jm) + im
           in
           if mask_bits land (1 lsl bit) <> 0 then 0.0 else 1.0)
    done
  done;
  let ff = sys.K.ff in
  let n_types = Array.length ff.Mdcore.Forcefield.types in
  let ti_base = 4 * Cluster.size and tj_base = joff + (4 * Cluster.size) in
  for jb = 0 to ((nj + jblk - 1) / jblk) - 1 do
    Simd.gather_into s.v_mask s.excl (jb * lanes) s.lane_id;
    Cost.int_ops cost s.c_mask;
    (* padded j slots exist up to the cluster capacity, so clamped
       loads of masked lanes stay in bounds *)
    for l = 0 to lanes - 1 do
      s.j_lane.(l) <- min ((jb * jblk) + (l / Cluster.size)) (Cluster.size - 1)
    done;
    Simd.gather_into s.v_xj jbuf joff s.j_lane;
    Simd.gather_into s.v_yj jbuf (joff + Cluster.size) s.j_lane;
    Simd.gather_into s.v_zj jbuf (joff + (2 * Cluster.size)) s.j_lane;
    Simd.gather_into s.v_qj jbuf (joff + (3 * Cluster.size)) s.j_lane;
    Simd.sub_into cost s.v_dx s.v_xi s.v_xj;
    mi_v cost s s.v_dx s.v_lx s.v_inv_lx;
    Simd.sub_into cost s.v_dy s.v_yi s.v_yj;
    mi_v cost s s.v_dy s.v_ly s.v_inv_ly;
    Simd.sub_into cost s.v_dz s.v_zi s.v_zj;
    mi_v cost s s.v_dz s.v_lz s.v_inv_lz;
    Simd.mul_into cost s.v_t1 s.v_dx s.v_dx;
    Simd.fma_into cost s.v_t1 s.v_dy s.v_dy s.v_t1;
    Simd.fma_into cost s.v_r2 s.v_dz s.v_dz s.v_t1;
    Simd.cmp_lt_into cost s.v_in_range s.v_r2 s.v_rcut2;
    Simd.mul_into cost s.v_active s.v_in_range s.v_mask;
    Simd.hsum_into cost s.v_active 0 lanes s.sums 0;
    if s.sums.(0) > 0.0 then begin
      (* per-lane LJ parameters: a scalar table gather on real hardware *)
      Cost.int_ops cost s.c_lanes;
      for l = 0 to lanes - 1 do
        s.tp_lane.(l) <-
          (int_of_float ibuf.(ti_base + s.i_lane.(l)) * n_types)
          + int_of_float jbuf.(tj_base + s.j_lane.(l))
      done;
      Simd.gather_into s.v_c6 ff.Mdcore.Forcefield.c6 0 s.tp_lane;
      Simd.gather_into s.v_c12 ff.Mdcore.Forcefield.c12 0 s.tp_lane;
      (* guard against r2 = 0 in masked-out lanes (padding at origin) *)
      Simd.select_into cost s.v_r2_safe s.v_active s.v_r2 s.v_one;
      Simd.rsqrt_into cost s.v_inv_r s.v_r2_safe;
      Simd.mul_into cost s.v_inv_r2 s.v_inv_r s.v_inv_r;
      Simd.mul_into cost s.v_t1 s.v_inv_r2 s.v_inv_r2;
      Simd.mul_into cost s.v_inv_r6 s.v_inv_r2 s.v_t1;
      Simd.mul_into cost s.v_inv_r12 s.v_inv_r6 s.v_inv_r6;
      (* e_lj = c12 * inv_r12 - c6 * inv_r6 *)
      Simd.mul_into cost s.v_e_lj s.v_c12 s.v_inv_r12;
      Simd.mul_into cost s.v_t1 s.v_c6 s.v_inv_r6;
      Simd.sub_into cost s.v_e_lj s.v_e_lj s.v_t1;
      (* f_lj = (12 c12 inv_r12 - 6 c6 inv_r6) * inv_r2; the products
         are recharged, matching the historical expression *)
      Simd.mul_into cost s.v_t1 s.v_c12 s.v_inv_r12;
      Simd.mul_into cost s.v_t1 s.v_twelve s.v_t1;
      Simd.mul_into cost s.v_t2 s.v_c6 s.v_inv_r6;
      Simd.mul_into cost s.v_t2 s.v_six s.v_t2;
      Simd.sub_into cost s.v_t1 s.v_t1 s.v_t2;
      Simd.mul_into cost s.v_f_lj s.v_t1 s.v_inv_r2;
      Simd.mul_into cost s.v_t1 s.v_qi s.v_qj;
      Simd.mul_into cost s.v_keqq s.v_t1 s.v_ke;
      (match sys.K.params.K.Nonbonded.elec with
      | K.Nonbonded.Reaction_field ->
          (* f_el = keqq * (inv_r3 - 2 krf) *)
          Simd.mul_into cost s.v_t1 s.v_inv_r2 s.v_inv_r;
          Simd.sub_into cost s.v_t1 s.v_t1 s.v_two_krf;
          Simd.mul_into cost s.v_f_el s.v_keqq s.v_t1;
          (* e_el = keqq * (krf * r2 + inv_r - crf) *)
          Simd.fma_into cost s.v_t1 s.v_krf s.v_r2_safe s.v_inv_r;
          Simd.sub_into cost s.v_t1 s.v_t1 s.v_crf;
          Simd.mul_into cost s.v_e_el s.v_keqq s.v_t1
      | K.Nonbonded.Ewald_real beta ->
          (* erfc evaluated per lane: a vectorized polynomial on the
             hardware; charged as a fixed block of vector ops per
             4-lane group *)
          Cost.simd cost s.c_ewald;
          Simd.store_into s.a_qq 0 s.v_keqq;
          for l = 0 to lanes - 1 do
            s.a_qq.(l) <- s.a_qq.(l) /. Mdcore.Forcefield.ke
          done;
          Simd.store_into s.a_r2 0 s.v_r2_safe;
          Mdcore.Coulomb.ewald_real_into ~beta ~n:lanes ~qq:s.a_qq ~r2:s.a_r2
            ~f:s.a_f ~e:s.a_e;
          Simd.gather_into s.v_f_el s.a_f 0 s.lane_id;
          Simd.gather_into s.v_e_el s.a_e 0 s.lane_id);
      Simd.add_into cost s.v_t1 s.v_f_lj s.v_f_el;
      Simd.mul_into cost s.v_f s.v_t1 s.v_active;
      Simd.mul_into cost s.v_t1 s.v_e_lj s.v_active;
      Simd.hsum_into cost s.v_t1 0 lanes s.sums 0;
      res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. s.sums.(0);
      Simd.mul_into cost s.v_t1 s.v_e_el s.v_active;
      Simd.hsum_into cost s.v_t1 0 lanes s.sums 0;
      res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. s.sums.(0);
      Simd.hsum_into cost s.v_active 0 lanes s.sums 0;
      res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + int_of_float s.sums.(0);
      Simd.mul_into cost s.v_fx s.v_f s.v_dx;
      Simd.mul_into cost s.v_fy s.v_f s.v_dy;
      Simd.mul_into cost s.v_fz s.v_f s.v_dz;
      Simd.add_into cost s.v_fa_x s.v_fa_x s.v_fx;
      Simd.add_into cost s.v_fa_y s.v_fa_y s.v_fy;
      Simd.add_into cost s.v_fa_z s.v_fa_z s.v_fz;
      (* FB post-treatment per j-member: horizontal-sum the 4-lane
         group belonging to that member (a free register extract at
         4 lanes, where the group is the whole vector) *)
      for b = 0 to jblk - 1 do
        let mj = (jb * jblk) + b in
        if mj < nj then begin
          let g = b * Cluster.size in
          Simd.hsum_into cost s.v_fx g Cluster.size s.sums 0;
          Simd.hsum_into cost s.v_fy g Cluster.size s.sums 1;
          Simd.hsum_into cost s.v_fz g Cluster.size s.sums 2;
          fb.(3 * mj) <- fb.(3 * mj) +. -.s.sums.(0);
          fb.((3 * mj) + 1) <- fb.((3 * mj) + 1) +. -.s.sums.(1);
          fb.((3 * mj) + 2) <- fb.((3 * mj) + 2) +. -.s.sums.(2);
          fb_used := true
        end
      done
    end
  done

(* --- driver ------------------------------------------------------------ *)

(** The slab walk's declared working set: one i-package streams per
    tile through the plan's rotating slots, the FA block stays
    resident for the slice.  The j-side demand buffer or cache arena
    is per-slice scratch, claimed through the offload layer at setup
    time.  The double-buffer depth and the LDM budget check both live
    in the derived plan — this module holds no LDM arithmetic. *)
let offload_plan cfg ~slots ~n_clusters =
  Swoffload.Plan.derive_exn
    {
      Swoffload.Plan.kernel = "nonbonded";
      buffers =
        [
          {
            Swoffload.Plan.name = "i-package";
            intent = Swoffload.Plan.Read;
            item_bytes = Package.bytes;
          };
        ];
      resident_bytes = K.force_bytes;
      tile = Swoffload.Plan.Items 1;
      slots;
    }
    ~cfg ~n_items:n_clusters

(* per-slice pipeline state handed back to the offload driver *)
type slice = {
  fetch_i : int -> unit;
  compute_i : int -> unit;
  wind_down : unit -> unit;
}

(** [run ?sched ?buffers sys pairs cg spec] executes the short-range
    kernel on the core group and returns the physics result plus cache
    statistics.  For [Owner_only] (RCA), [pairs] must be the full pair
    list ({!Mdcore.Pair_list.to_full}).

    With [sched], the run is additionally recorded for the swsched
    replay: the i-package read path goes through the double-buffer
    {!Swsched.Pipeline} with [buffers] LDM slots (the plan's default
    depth when omitted), j-cache fills stay blocking demand reads, and
    write-backs become asynchronous puts.  The physics executes in the
    exact serial order either way, so forces and energies are
    bit-identical with and without a recorder.

    With [reference], the slice callbacks run through the bare serial
    reference executor instead of the offload driver (no domain pool,
    recorder, trace or fault guard) — the pre-refactor choreography
    the swverify [offload-identity] property pins the driver to. *)
let run ?sched ?buffers ?(dead = []) ?(reference = false) sys
    (pairs : Pair_list.t) (cg : Swarch.Core_group.t) spec =
  let buffers =
    match buffers with Some b -> b | None -> Swoffload.Plan.default_slots
  in
  (match spec.write with
  | Rmw_direct | Owner_only when spec.vector ->
      invalid_arg "Kernel_cpe.run: the vector kernels write through the deferred cache"
  | _ -> ());
  if buffers < 1 then invalid_arg "Kernel_cpe.run: buffers < 1";
  let cfg = sys.K.cfg in
  let lanes = cfg.Swarch.Config.simd_lanes in
  if spec.vector && lanes <> Cluster.size && lanes <> 2 * Cluster.size then
    invalid_arg
      (Printf.sprintf
         "Kernel_cpe.run: the vector kernels need %d or %d SIMD lanes, not %d"
         Cluster.size (2 * Cluster.size) lanes);
  let res = K.empty_result sys in
  let n_cpes = Array.length cg.Swarch.Core_group.cpes in
  let backing = if spec.vector then sys.K.pkg_soa else sys.K.pkg_aos in
  let stats =
    {
      read_stats = (if spec.cached_read then Some (Swcache.Stats.create ()) else None);
      write_stats =
        (match spec.write with
        | Deferred _ -> Some (Swcache.Stats.create ())
        | Rmw_direct | Owner_only | Mpe_collect -> None);
      marked_lines = 0;
      total_lines = 0;
    }
  in
  let copies = Array.make n_cpes (None : Reduction.copy option) in
  (* Per-CPE accumulators.  Each CPE's slice writes only its own slot;
     after the (possibly domain-sharded) mesh walk a serial merge folds
     them into [res] in plain CPE-id order.  Running the same local
     accumulation plus ordered merge at {e every} domain count —
     including one — is what keeps energies, forces and cost charges
     bit-identical from [--domains 1] to [--domains N]. *)
  let l_res =
    Array.init n_cpes (fun _ ->
        {
          K.force =
            (* only the MPE-collect baseline scatters j-side updates to
               arbitrary blocks; every other path writes disjoint owner
               blocks (or goes through its private copy), so it can
               share the output array directly *)
            (if spec.write = Mpe_collect then
               Array.make (Array.length res.K.force) 0.0
             else res.K.force);
          acc = { K.e_lj = 0.0; e_coul = 0.0 };
          pairs_in_cutoff = 0;
        })
  in
  let l_mpe_mem = Array.make n_cpes 0.0 in
  let l_mpe_flops = Array.make n_cpes 0.0 in
  let l_read = Array.make n_cpes (None : Swcache.Stats.t option) in
  let l_write = Array.make n_cpes (None : Swcache.Stats.t option) in
  let l_marked = Array.make n_cpes 0 in
  let l_total = Array.make n_cpes 0 in
  (* permanently failed CPEs get the empty slab; their i-clusters are
     re-striped over the survivors.  [dead = []] takes the original
     partition so the healthy path stays bit-identical. *)
  let alive = K.alive_ids n_cpes dead in
  let partition id =
    if dead = [] then K.partition sys.K.n_clusters n_cpes id
    else K.partition_alive sys.K.n_clusters ~alive id
  in
  (* [setup] builds one CPE slice's state: caches, the write copy, the
     scratch registers and the fetch/compute stages over i-clusters.
     The offload driver supplies everything around it — the recorder
     task, the fault guard, the plan's LDM reservation, the
     double-buffer pipeline, trace spans and the sharded mesh walk. *)
  let setup (env : Swoffload.Offload.env) =
        let cpe = env.Swoffload.Offload.cpe in
        let lo = env.Swoffload.Offload.lo in
        let cost = cpe.Swarch.Cpe.cost in
        let lres = l_res.(cpe.Swarch.Cpe.id) in
        (* each CPE keeps a full-length force copy, as the RMA scheme
           prescribes ("an interaction array for every particle") --
           its initialization and reduction cost is precisely what the
           update-mark strategy attacks *)
        let wlo = 0 in
        let wlen =
          (sys.K.n_clusters + K.write_line_elts - 1)
          / K.write_line_elts * K.write_line_elts
        in
        let ldm = cpe.Swarch.Cpe.ldm in
        (* the i-package slots and the FA block are the plan's LDM
           reservation, already allocated by the driver; only the
           demand-read j buffer below is extra per-slice scratch *)
        let ibuf = Array.make Package.floats 0.0 in
        let jbuf = Array.make Package.floats 0.0 in
        let read_cache =
          if spec.cached_read then
            Some
              (Swcache.Read_cache.create cfg cost ~ldm ~ways:1 ~backing
                 ~elt_floats:Package.floats ~line_elts:K.read_line_elts
                 ~n_lines:(K.read_lines cfg) ())
          else begin
            Swoffload.Offload.scratch env Package.bytes;
            None
          end
        in
        let copy_arr, write_cache =
          match spec.write with
          | Rmw_direct | Deferred _ ->
              let arr = Array.make (max 1 (wlen * K.force_floats)) 0.0 in
              let wc =
                match spec.write with
                | Deferred { marks } ->
                    Some
                      (Swcache.Write_cache.create cfg cost ~ldm ~with_marks:marks
                         ~copy:arr ~elt_floats:K.force_floats
                         ~line_elts:K.write_line_elts
                         ~n_lines:(K.write_lines cfg) ())
                | Rmw_direct | Owner_only | Mpe_collect -> None
              in
              (Some arr, wc)
          | Owner_only | Mpe_collect -> (None, None)
        in
        (* initialization step: unmarked copies must be zeroed by DMA;
           recorded blocking — the zeroes must land before the loop *)
        (match spec.write with
        | Rmw_direct | Deferred { marks = false } ->
            Swoffload.Offload.sync env (fun () ->
                let bytes = wlen * K.force_bytes in
                let blocks = (bytes + 2047) / 2048 in
                for _ = 1 to blocks do
                  Dma.put cfg cost ~bytes:2048
                done)
        | Deferred { marks = true } | Owner_only | Mpe_collect -> ());
        (* j packages are read at [fetch_j cj]'s offset in [jdata] *)
        let jdata =
          match read_cache with
          | Some rc -> rc.Swcache.Read_cache.data
          | None -> jbuf
        in
        let fetch_j cj =
          match read_cache with
          | Some rc -> Swcache.Read_cache.touch rc cj
          | None ->
              Array.blit backing (cj * Package.floats) jbuf 0 Package.floats;
              Dma.get cfg cost ~bytes:Package.bytes;
              0
        in
        let send_to_mpe block_base fb =
          Dma.put cfg cost ~bytes:K.force_bytes;
          (* MPE charges accumulate locally and are applied at merge
             time in CPE-id order, so the MPE cost too is independent
             of the domain count *)
          let id = cpe.Swarch.Cpe.id in
          l_mpe_mem.(id) <- l_mpe_mem.(id) +. float_of_int (2 * K.force_bytes);
          l_mpe_flops.(id) <- l_mpe_flops.(id) +. float_of_int K.force_floats;
          for k = 0 to K.force_floats - 1 do
            lres.K.force.(block_base + k) <-
              lres.K.force.(block_base + k) +. fb.(k)
          done
        in
        (* per-cj write-back machinery: accumulate member increments in
           an LDM block, then apply through the variant's write path.
           The scalar loop stages each pair's j-side increment in [inc]. *)
        let fb = Array.make K.force_floats 0.0 in
        let fb_used = ref false in
        let inc = Array.make 3 0.0 in
        let accumulate_fb mj =
          fb.((3 * mj) + 0) <- fb.((3 * mj) + 0) +. inc.(0);
          fb.((3 * mj) + 1) <- fb.((3 * mj) + 1) +. inc.(1);
          fb.((3 * mj) + 2) <- fb.((3 * mj) + 2) +. inc.(2);
          fb_used := true
        in
        let clear_fb () =
          Array.fill fb 0 K.force_floats 0.0;
          fb_used := false
        in
        (* Pkg has no deferred update: Algorithm 1 line 9 applies every
           pair's FB increment to main memory immediately (12 B RMW),
           which is exactly the traffic the write cache eliminates *)
        let rmw_pair cj mj =
          let arr = Option.get copy_arr in
          Dma.get cfg cost ~bytes:12;
          let base = ((cj - wlo) * K.force_floats) + (3 * mj) in
          arr.(base) <- arr.(base) +. inc.(0);
          arr.(base + 1) <- arr.(base + 1) +. inc.(1);
          arr.(base + 2) <- arr.(base + 2) +. inc.(2);
          Cost.flops cost 3.0;
          Dma.put cfg cost ~bytes:12
        in
        let flush_fb cj =
          if !fb_used then begin
            (match spec.write with
            | Rmw_direct -> assert false (* Rmw_direct applies per pair *)
            | Deferred _ ->
                let wc = Option.get write_cache in
                for m = 0 to Cluster.size - 1 do
                  let b = 3 * m in
                  if fb.(b) <> 0.0 || fb.(b + 1) <> 0.0 || fb.(b + 2) <> 0.0 then
                    Swcache.Write_cache.accumulate_at wc (cj - wlo) b fb b
                done
            | Owner_only -> ()
            | Mpe_collect -> send_to_mpe (cj * K.force_floats) fb);
            clear_fb ()
          end
        in
        let apply_a ci fa =
          match spec.write with
          | Deferred _ ->
              let wc = Option.get write_cache in
              for m = 0 to Cluster.size - 1 do
                let b = 3 * m in
                Swcache.Write_cache.accumulate_at wc (ci - wlo) b fa b
              done
          | Rmw_direct ->
              let arr = Option.get copy_arr in
              Dma.get cfg cost ~bytes:K.force_bytes;
              let base = (ci - wlo) * K.force_floats in
              for k = 0 to K.force_floats - 1 do
                arr.(base + k) <- arr.(base + k) +. fa.(k)
              done;
              Cost.flops cost (float_of_int K.force_floats);
              Dma.put cfg cost ~bytes:K.force_bytes
          | Owner_only ->
              Dma.put cfg cost ~bytes:K.force_bytes;
              let base = ci * K.force_floats in
              for k = 0 to K.force_floats - 1 do
                lres.K.force.(base + k) <- lres.K.force.(base + k) +. fa.(k)
              done
          | Mpe_collect -> send_to_mpe (ci * K.force_floats) fa
        in
        (* the i-package loop as a fetch/compute pipeline: the fixed
           outer-loop package is one direct DMA (the prefetchable
           stage); serially the combinator degenerates to the
           reference loop *)
        let fetch_i k =
          let ci = lo + k in
          Array.blit backing (ci * Package.floats) ibuf 0 Package.floats;
          Dma.get cfg cost ~bytes:Package.bytes
        in
        (* per-slice scratch, reused by every i-cluster: the vector
           register file, the scalar FA block and the pair-physics
           scratch live for the whole slice *)
        let vs =
          if spec.vector then Some (make_vscratch sys cfg.Swarch.Config.simd_lanes)
          else None
        in
        let fa = Array.make K.force_floats 0.0 in
        let pout = K.fresh_pair_out () in
        (* where the scalar loop's staged j-side increment goes *)
        let apply_b ci cj mj =
          match spec.write with
          | Owner_only ->
              (* RCA: the j side is someone else's i side, except
                 intra-cluster pairs, which land in FA directly *)
              if cj = ci then begin
                fa.((3 * mj) + 0) <- fa.((3 * mj) + 0) +. inc.(0);
                fa.((3 * mj) + 1) <- fa.((3 * mj) + 1) +. inc.(1);
                fa.((3 * mj) + 2) <- fa.((3 * mj) + 2) +. inc.(2)
              end
          | Rmw_direct -> rmw_pair cj mj
          | Deferred _ | Mpe_collect -> accumulate_fb mj
        in
        let compute_i k =
          let ci = lo + k in
          match vs with
          | Some s ->
              load_i s ibuf;
              Simd.splat_into s.v_fa_x 0.0;
              Simd.splat_into s.v_fa_y 0.0;
              Simd.splat_into s.v_fa_z 0.0;
              Pair_list.iter_ci pairs ci (fun cj ->
                  let joff = fetch_j cj in
                  vector_pairs sys cpe lres ~ci ~cj ~ibuf ~jbuf:jdata ~joff ~s
                    ~fb ~fb_used;
                  flush_fb cj);
              (* post-treatment: fold wide accumulators down to one
                 4-lane register per axis (free at 4 lanes), then the
                 Figure 7 transpose, then apply FA *)
              Simd.narrow_into cost s.v_nx s.v_fa_x;
              Simd.narrow_into cost s.v_ny s.v_fa_y;
              Simd.narrow_into cost s.v_nz s.v_fa_z;
              Simd.transpose3x4_into cost s.v_nx s.v_ny s.v_nz s.v_fa12;
              apply_a ci s.v_fa12
          | None ->
              Array.fill fa 0 K.force_floats 0.0;
              Pair_list.iter_ci pairs ci (fun cj ->
                  let joff = fetch_j cj in
                  let scale =
                    if spec.write = Owner_only && ci <> cj then 0.5 else 1.0
                  in
                  scalar_pairs sys cpe lres ~ci ~cj ~ibuf ~jbuf:jdata ~joff ~fa
                    ~inc ~pout ~apply_b ~scale;
                  flush_fb cj);
              apply_a ci fa
        in
        (* wind down: flush caches, park stats in this CPE's slot
           (aggregated at merge time), register the copy *)
        let wind_down () =
          let id = cpe.Swarch.Cpe.id in
          (match write_cache with
        | Some wc ->
            Swcache.Write_cache.flush wc;
            l_write.(id) <- Some (Swcache.Write_cache.stats wc);
            let marks = Swcache.Write_cache.marks wc in
            (match marks with
            | Some m ->
                l_marked.(id) <- Swcache.Bitmap.count m;
                l_total.(id) <- Swcache.Bitmap.length m
            | None ->
                l_total.(id) <-
                  Swcache.Write_cache.n_mem_lines ~n_elements:wlen
                    ~line_elts:K.write_line_elts);
            (match copy_arr with
            | Some arr -> copies.(id) <- Some { Reduction.wlo; data = arr; marks }
            | None -> ());
            Swcache.Write_cache.release wc
        | None -> (
            match (spec.write, copy_arr) with
            | Rmw_direct, Some arr ->
                l_total.(id) <-
                  Swcache.Write_cache.n_mem_lines ~n_elements:wlen
                    ~line_elts:K.write_line_elts;
                copies.(id) <- Some { Reduction.wlo; data = arr; marks = None }
            | _ -> ()));
          (match read_cache with
          | Some rc ->
              l_read.(id) <- Some (Swcache.Read_cache.stats rc);
              Swcache.Read_cache.release rc
          | None -> ())
        in
        { fetch_i; compute_i; wind_down }
  in
  let plan = offload_plan cfg ~slots:buffers ~n_clusters:sys.K.n_clusters in
  let kernel =
    {
      Swoffload.Offload.plan;
      phase = "force";
      partition;
      setup;
      fetch = (fun s i -> s.fetch_i i);
      compute = (fun s i -> s.compute_i i);
      teardown = (fun s -> s.wind_down ());
    }
  in
  (* the mesh walk: the offload driver stripes contiguous CPE-id ranges
     over the configured domains (disjoint accumulator slots, disjoint
     trace tracks, per-shard branch recorders merged back in shard
     order — nothing below needs a lock), reserves the plan's LDM block
     per slice and drives the double-buffer i-package pipeline. *)
  if reference then Swoffload.Offload.run_reference ~cg kernel
  else Swoffload.Offload.run ?sched ~cg kernel;
  (* the deterministic merge: fold every per-CPE accumulator into the
     shared result in CPE-id order — the same float additions in the
     same order no matter how the walk above was sharded *)
  for id = 0 to n_cpes - 1 do
    let lres = l_res.(id) in
    res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. lres.K.acc.K.e_lj;
    res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. lres.K.acc.K.e_coul;
    res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + lres.K.pairs_in_cutoff;
    if spec.write = Mpe_collect then begin
      let ov = lres.K.force in
      for k = 0 to Array.length ov - 1 do
        if ov.(k) <> 0.0 then res.K.force.(k) <- res.K.force.(k) +. ov.(k)
      done
    end;
    if l_mpe_mem.(id) <> 0.0 then
      Swarch.Mpe.charge_mem cg.Swarch.Core_group.mpe l_mpe_mem.(id);
    if l_mpe_flops.(id) <> 0.0 then
      Swarch.Mpe.charge_flops cg.Swarch.Core_group.mpe l_mpe_flops.(id);
    (match (l_read.(id), stats.read_stats) with
    | Some s, Some agg ->
        agg.Swcache.Stats.hits <- agg.Swcache.Stats.hits + s.Swcache.Stats.hits;
        agg.Swcache.Stats.misses <-
          agg.Swcache.Stats.misses + s.Swcache.Stats.misses;
        agg.Swcache.Stats.evictions <-
          agg.Swcache.Stats.evictions + s.Swcache.Stats.evictions
    | _ -> ());
    (match (l_write.(id), stats.write_stats) with
    | Some s, Some agg ->
        agg.Swcache.Stats.hits <- agg.Swcache.Stats.hits + s.Swcache.Stats.hits;
        agg.Swcache.Stats.misses <-
          agg.Swcache.Stats.misses + s.Swcache.Stats.misses;
        agg.Swcache.Stats.writebacks <-
          agg.Swcache.Stats.writebacks + s.Swcache.Stats.writebacks
    | _ -> ());
    stats.marked_lines <- stats.marked_lines + l_marked.(id);
    stats.total_lines <- stats.total_lines + l_total.(id)
  done;
  (* reduction step: fold the per-CPE copies into the final forces.
     A barrier separates it from the force loop — every copy must be
     complete before line owners start summing. *)
  (match spec.write with
  | Rmw_direct | Deferred _ ->
      (match sched with
      | Some r -> Swsched.Recorder.phase r "reduce"
      | None -> ());
      Reduction.run ?sched ~dead ~reference sys cg ~copies res
  | Owner_only | Mpe_collect -> ());
  (res, stats)
