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

let[@inline] mi d l = d -. (l *. Float.round (d /. l))

(** [run sys pairs cg] executes the kernel on the MPE and returns the
    result (forces in cluster order, energies, pair count).  The pair
    loop reads the AoS package floats directly and passes no float
    across a call, like {!Kernel_cpe}'s scalar path (docs/ALLOC.md). *)
let run sys (pairs : Pair_list.t) (cg : Swarch.Core_group.t) =
  let res = K.empty_result sys in
  let force = res.K.force in
  let pout = K.fresh_pair_out () in
  let mpe = cg.Swarch.Core_group.mpe in
  let box = sys.K.box in
  let lx = box.K.Box.lx and ly = box.K.Box.ly and lz = box.K.Box.lz in
  let rcut2 = sys.K.params.K.Nonbonded.rcut *. sys.K.params.K.Nonbonded.rcut in
  let flops_hit = K.flops_interaction sys in
  let buf = sys.K.pkg_aos in
  let fpp = Package.floats_per_particle in
  Pair_list.iter_pairs pairs (fun ci cj ->
      let ni = Cluster.count sys.K.cl ci and nj = Cluster.count sys.K.cl cj in
      let mask = K.excl_mask sys ci cj in
      let ioff = ci * Package.floats and joff = cj * Package.floats in
      for mi_ = 0 to ni - 1 do
        let ia = ioff + (mi_ * fpp) in
        let mj_start = if ci = cj then mi_ + 1 else 0 in
        for mj = mj_start to nj - 1 do
          if mask land (1 lsl ((4 * mi_) + mj)) = 0 then begin
            Swarch.Mpe.charge_flops mpe K.flops_distance;
            Swarch.Mpe.charge_mem mpe bytes_per_visit;
            let ja = joff + (mj * fpp) in
            let dx = mi (buf.(ia) -. buf.(ja)) lx
            and dy = mi (buf.(ia + 1) -. buf.(ja + 1)) ly
            and dz = mi (buf.(ia + 2) -. buf.(ja + 2)) lz in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            if r2 <= rcut2 && r2 > 0.0 then begin
              Swarch.Mpe.charge_flops mpe flops_hit;
              Swarch.Mpe.charge_mem mpe bytes_per_hit;
              pout.K.p_r2.(0) <- r2;
              pout.K.p_qq.(0) <- buf.(ia + 3) *. buf.(ja + 3);
              K.pair_interaction_into sys
                ~ti:(int_of_float buf.(ia + 4))
                ~tj:(int_of_float buf.(ja + 4))
                pout;
              let f = pout.K.p_f.(0) in
              res.K.acc.K.e_lj <- res.K.acc.K.e_lj +. pout.K.p_e_lj.(0);
              res.K.acc.K.e_coul <- res.K.acc.K.e_coul +. pout.K.p_e_coul.(0);
              res.K.pairs_in_cutoff <- res.K.pairs_in_cutoff + 1;
              let si = 3 * ((ci * Cluster.size) + mi_)
              and sj = 3 * ((cj * Cluster.size) + mj) in
              force.(si) <- force.(si) +. (f *. dx);
              force.(si + 1) <- force.(si + 1) +. (f *. dy);
              force.(si + 2) <- force.(si + 2) +. (f *. dz);
              force.(sj) <- force.(sj) +. (-.f *. dx);
              force.(sj + 1) <- force.(sj + 1) +. (-.f *. dy);
              force.(sj + 2) <- force.(sj + 2) +. (-.f *. dz)
            end
          end
        done
      done);
  res
