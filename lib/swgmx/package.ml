(** Particle packages (Figure 2) and the vectorization layout
    (Figure 6).

    GROMACS scatters a particle's position, type and charge over
    separate arrays; fetching them one element at a time puts every
    DMA transfer at the 8-byte floor of the bandwidth curve.  The
    package aggregates all fields of the four particles of one cluster
    into one contiguous block, so a single transfer moves ~100 bytes
    and the read cache can fetch eight packages (~800 B) per line at
    near-peak bandwidth.

    Two layouts of the same block:

    - {b AoS} (Fig 2): per particle [x y z q t pad] — natural for the
      scalar kernels;
    - {b SoA} (Fig 6): [x1 x2 x3 x4 | y1.. | z1.. | q1.. | t1.. | pad]
      — the same position element of the four particles is contiguous,
      so the vector kernels load a lane-full with one instruction. *)

(** Floats stored per particle (x, y, z, charge, type, padding). *)
let floats_per_particle = 6

(** Floats per package ([4 * floats_per_particle]). *)
let floats = Mdcore.Cluster.size * floats_per_particle

(** Bytes of one package as transferred by DMA (single precision). *)
let bytes = floats * 4

type layout = Aos | Soa

(* field offsets *)
let aos_base m = m * floats_per_particle
let soa_base field m = (field * Mdcore.Cluster.size) + m

(** [pack ~layout cl pos charge type_of] builds the main-memory package
    array for every cluster of [cl] (cluster-ordered, padded slots
    zero); positions are pre-wrapped into the box by the caller if
    needed. *)
let pack ~layout (cl : Mdcore.Cluster.t) ~(pos : Mdcore.Fbuf.t) ~charge ~type_of =
  let nc = cl.Mdcore.Cluster.n_clusters in
  let out = Array.make (nc * floats) 0.0 in
  for c = 0 to nc - 1 do
    for m = 0 to Mdcore.Cluster.count cl c - 1 do
      let a = Mdcore.Cluster.atom cl c m in
      let base = c * floats in
      match layout with
      | Aos ->
          out.(base + aos_base m) <- pos.{3 * a};
          out.(base + aos_base m + 1) <- pos.{(3 * a) + 1};
          out.(base + aos_base m + 2) <- pos.{(3 * a) + 2};
          out.(base + aos_base m + 3) <- charge.(a);
          out.(base + aos_base m + 4) <- float_of_int type_of.(a)
      | Soa ->
          out.(base + soa_base 0 m) <- pos.{3 * a};
          out.(base + soa_base 1 m) <- pos.{(3 * a) + 1};
          out.(base + soa_base 2 m) <- pos.{(3 * a) + 2};
          out.(base + soa_base 3 m) <- charge.(a);
          out.(base + soa_base 4 m) <- float_of_int type_of.(a)
    done
  done;
  out

(** Accessors into one package held in a flat buffer at float offset
    [off] (as returned by a cache [touch]).  [m] is the member slot. *)

let x ~layout buf off m =
  match layout with
  | Aos -> buf.(off + aos_base m)
  | Soa -> buf.(off + soa_base 0 m)

let y ~layout buf off m =
  match layout with
  | Aos -> buf.(off + aos_base m + 1)
  | Soa -> buf.(off + soa_base 1 m)

let z ~layout buf off m =
  match layout with
  | Aos -> buf.(off + aos_base m + 2)
  | Soa -> buf.(off + soa_base 2 m)

let charge ~layout buf off m =
  match layout with
  | Aos -> buf.(off + aos_base m + 3)
  | Soa -> buf.(off + soa_base 3 m)
