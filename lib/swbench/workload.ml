(** Benchmark case definitions (Section 4.1, Table 3).

    The paper evaluates on the GROMACS "water" benchmark family at
    several particle counts.  [quick] variants shrink every case by a
    constant factor so the full harness can run in development loops;
    the shape of every result is preserved. *)

type case = {
  name : string;
  particles : int;
  n_cg : int;
}

(** Case 1: 48,000 particles on a single core group. *)
let case1 = { name = "case 1 (48k particles, 1 CG)"; particles = 48_000; n_cg = 1 }

(** Case 2: 3,072,000 particles on 512 core groups. *)
let case2 = { name = "case 2 (3.07M particles, 512 CGs)"; particles = 3_072_000; n_cg = 512 }

(** Figure 8's per-CG sizes. *)
let fig8_sizes = [ 12_000; 24_000; 48_000; 96_000 ]

(** [shrink ~quick case] divides the workload by 8 in quick mode
    (keeping multi-CG counts). *)
let shrink ~quick c =
  if quick then { c with particles = max 3000 (c.particles / 8) } else c

(** [shrink_size ~quick n] scales one Figure 8 size. *)
let shrink_size ~quick n = if quick then max 3000 (n / 8) else n

(** Table 3 rows: the benchmark's input parameters. *)
let table3 =
  [
    ("particles number", "0.9K ~ 3,000K");
    ( "nstlist",
      string_of_int Mdcore.Workflow.default_config.Mdcore.Workflow.nstlist );
    ("ns_type", "grid");
    ("coulombtype", "PME");
    ("rlist", "1.0");
    ("nsteps", "100");
    ("cutoff-scheme", "verlet");
  ]
