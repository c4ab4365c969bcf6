(** Analytic cost model of the PME long-range solver.

    The real PME implementation lives in {!Mdcore.Pme} (and is used for
    physics); this module only prices it for the simulated-time
    breakdown: B-spline spreading/gathering, the 3D FFT and the k-space
    solve, either on the MPE (original code) or spread across the CPEs
    (the ported pipeline). *)

(** [flops ~n_atoms ~grid] estimates floating-point work of one PME
    evaluation: spread + gather (64 mesh points per atom, order 4) and
    two 3D FFTs plus the influence-function sweep. *)
let flops ~n_atoms ~grid =
  let k3 = float_of_int (grid * grid * grid) in
  let spread_gather = float_of_int n_atoms *. 2.0 *. 64.0 *. 10.0 in
  let fft = 2.0 *. 5.0 *. k3 *. Float.log2 (Float.max 2.0 k3) in
  let solve = 10.0 *. k3 in
  spread_gather +. fft +. solve

(** [grid_bytes ~grid] is the grid storage touched per evaluation. *)
let grid_bytes ~grid = float_of_int (grid * grid * grid * 8)

(** [mpe_time cfg ~n_atoms ~grid] prices PME on the management core. *)
let mpe_time (cfg : Swarch.Config.t) ~n_atoms ~grid =
  (flops ~n_atoms ~grid /. cfg.Swarch.Config.mpe_flops_per_cycle
  /. cfg.Swarch.Config.mpe_freq_hz)
  +. (3.0 *. grid_bytes ~grid /. cfg.Swarch.Config.mpe_mem_bw)

(** [cpe_time cfg ~n_atoms ~grid] prices the CPE port: the mesh work
    parallelizes over the 64 CPEs at ~50% vector efficiency, and the
    grid makes three DMA round trips. *)
let cpe_time (cfg : Swarch.Config.t) ~n_atoms ~grid =
  let cpes = float_of_int cfg.Swarch.Config.cpe_count in
  (flops ~n_atoms ~grid /. (cpes *. 2.0) /. cfg.Swarch.Config.cpe_freq_hz)
  +. (3.0 *. grid_bytes ~grid /. Swarch.Config.peak_dma_bw cfg)
