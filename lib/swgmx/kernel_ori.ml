(** The original baseline: GROMACS's scalar short-range kernel running
    on the MPE alone (Algorithm 1, before any porting work).

    Arithmetic is the same pair interaction as the reference engine;
    what makes this version slow in the model is that all work runs on
    the single management core with fine-grained memory access — no
    CPEs, no DMA aggregation, no SIMD. *)

module K = Kernel_common
module Cluster = Mdcore.Cluster
module Pair_list = Mdcore.Pair_list

(** MPE memory traffic charged per visited particle pair: scattered
    reads of the j particle's position at cache-line granularity on a
    core whose last-level cache is far smaller than the working set. *)
let bytes_per_visit = 64.0

(** Additional MPE traffic for an in-cut-off pair: type/charge reads
    plus the force read-modify-write. *)
let bytes_per_hit = 96.0

let mi d l = d -. (l *. Float.round (d /. l))

(** [run sys pairs cg] executes the kernel on the MPE and returns the
    result (forces in cluster order, energies, pair count). *)
let run sys (pairs : Pair_list.t) (cg : Swarch.Core_group.t) =
  let res = K.empty_result sys in
  let pout = K.fresh_pair_out () in
  let mpe = cg.Swarch.Core_group.mpe in
  let box = sys.K.box in
  let rcut2 = sys.K.params.K.Nonbonded.rcut *. sys.K.params.K.Nonbonded.rcut in
  let layout = Package.Aos in
  let buf = sys.K.pkg_aos in
  Pair_list.iter_pairs pairs (fun ci cj ->
      let ni = Cluster.count sys.K.cl ci and nj = Cluster.count sys.K.cl cj in
      let mask = K.excl_mask sys ci cj in
      let ioff = ci * Package.floats and joff = cj * Package.floats in
      for mi_ = 0 to ni - 1 do
        let mj_start = if ci = cj then mi_ + 1 else 0 in
        for mj = mj_start to nj - 1 do
          if mask land (1 lsl ((4 * mi_) + mj)) = 0 then begin
            Swarch.Mpe.charge_flops mpe K.flops_distance;
            Swarch.Mpe.charge_mem mpe bytes_per_visit;
            let dx = mi (Package.x ~layout buf ioff mi_ -. Package.x ~layout buf joff mj) box.K.Box.lx
            and dy = mi (Package.y ~layout buf ioff mi_ -. Package.y ~layout buf joff mj) box.K.Box.ly
            and dz = mi (Package.z ~layout buf ioff mi_ -. Package.z ~layout buf joff mj) box.K.Box.lz in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            if r2 <= rcut2 && r2 > 0.0 then begin
              Swarch.Mpe.charge_flops mpe (K.flops_interaction sys);
              Swarch.Mpe.charge_mem mpe bytes_per_hit;
              let qq =
                Package.charge ~layout buf ioff mi_ *. Package.charge ~layout buf joff mj
              in
              let ti = Package.ptype ~layout buf ioff mi_
              and tj = Package.ptype ~layout buf joff mj in
              pout.K.p_r2.(0) <- r2;
              pout.K.p_qq.(0) <- qq;
              K.pair_interaction_into sys ~ti ~tj pout;
              let f = pout.K.p_f.(0) in
              res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. pout.K.p_e_lj.(0);
              res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. pout.K.p_e_coul.(0);
              res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + 1;
              let add slot d v =
                res.K.force.((3 * slot) + d) <- res.K.force.((3 * slot) + d) +. v
              in
              let si = (ci * Cluster.size) + mi_ and sj = (cj * Cluster.size) + mj in
              add si 0 (f *. dx);
              add si 1 (f *. dy);
              add si 2 (f *. dz);
              add sj 0 (-.f *. dx);
              add sj 1 (-.f *. dy);
              add sj 2 (-.f *. dz)
            end
          end
        done
      done);
  res
