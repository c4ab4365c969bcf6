(** Cross-platform comparison model (Table 4 and Equations 3-4).

    The paper compares SW26010 against Intel Knights Landing and the
    NVIDIA P100 with a "time to fulfill" (TTF) argument: all three run
    the same memory-bound kernel, so the TTF ratio reduces to the ratio
    of (cache miss rate / memory bandwidth).  This module encodes the
    published platform facts and the TTF equations so Figure 11 can be
    regenerated. *)

type t = {
  name : string;
  peak_flops : float;  (** flop/s *)
  mem_bw : float;  (** bytes/s *)
  cache_desc : string;  (** on-chip storage description for Table 4 *)
  miss_rate : float;  (** effective last-level miss rate of the kernel *)
}

(** Knights Landing, as described in Table 4 and Section 4.5: L1 miss
    ~2%, L2 miss <4%, so the combined rate is under 0.08%. *)
let knl =
  {
    name = "Knights Landing";
    peak_flops = 6e12;
    mem_bw = 400e9;
    cache_desc = "32 KB + 1 MB";
    miss_rate = 0.02 *. 0.04;
  }

(** [row_of p] derives a Table-4 comparison row from a simulator
    {!Platform.t}, so Figure 11 and the simulator can never disagree
    about a machine's peak flops, bandwidth or on-chip storage. *)
let row_of (p : Platform.t) =
  {
    name = p.Platform.display;
    peak_flops = Platform.chip_peak_flops p;
    mem_bw = p.Platform.chip_mem_bw;
    cache_desc = Printf.sprintf "%d KB LDM" (p.Platform.ldm_bytes / 1024);
    miss_rate = p.Platform.kernel_miss_rate;
  }

(** SW26010, derived from {!Platform.sw26010}.  Section 4.5 gives
    slightly inconsistent miss-rate prose ("KNL is about 2.5% of SW"
    would give 3.2%); 4% is the value that reproduces both published
    ratios, TTF(SW)/TTF(KNL) ~ 150 and TTF(SW)/TTF(P100) ~ 24,
    simultaneously. *)
let sw26010 = row_of Platform.sw26010

(** P100: L1 miss 6%, L2 miss 15%, combined ~0.9%. *)
let p100 =
  {
    name = "P100";
    peak_flops = 10e12;
    mem_bw = 720e9;
    cache_desc = "64 KB + 4 MB";
    miss_rate = 0.06 *. 0.15;
  }

(** All platforms of Table 4, in the paper's column order. *)
let all = [ knl; sw26010; p100 ]

(** [ttf_ratio a b] is TTF(a)/TTF(b) per Equations 3-4: the latency of
    servicing the kernel's memory misses, [miss_rate / mem_bw],
    compared across platforms ([LAA], the number of accesses, cancels). *)
let ttf_ratio a b = a.miss_rate /. a.mem_bw *. (b.mem_bw /. b.miss_rate)

(** [fair_chip_count other] is the number of SW26010 chips whose
    aggregate TTF matches one [other] device — the paper's notion of a
    fair comparison (150 vs KNL, 24 vs P100). *)
let fair_chip_count other =
  int_of_float (Float.round (ttf_ratio sw26010 other))
