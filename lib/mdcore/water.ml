(** Water-box workload generator.

    Builds the paper's benchmark input: a periodic box of rigid SPC/E
    water at liquid density.  Molecules sit on a cubic lattice with a
    deterministic random orientation and jitter, so any particle count
    from the paper's 0.9 K to 3,000 K range can be generated
    reproducibly. *)

(** Number density of liquid water in molecules/nm^3. *)
let molecules_per_nm3 = 33.4

(** [box_edge n_molecules] is the cubic box edge (nm) that puts
    [n_molecules] waters at liquid density. *)
let box_edge n_molecules =
  (float_of_int n_molecules /. molecules_per_nm3) ** (1.0 /. 3.0)

(* A random orthonormal frame for molecule orientation. *)
let random_frame rng =
  let open Vec3 in
  let u =
    normalize
      (make (Rng.gaussian rng) (Rng.gaussian rng) (Rng.gaussian rng))
  in
  let helper = if Float.abs u.x < 0.9 then make 1.0 0.0 0.0 else make 0.0 1.0 0.0 in
  let v = normalize (cross u helper) in
  (u, v)

(** [place_molecule state rng m center] writes the three atoms of
    molecule [m] around [center] with a random orientation and the
    exact SPC/E geometry. *)
let place_molecule (state : Md_state.t) rng m center =
  let open Vec3 in
  let u, v = random_frame rng in
  let half = Forcefield.spce_angle /. 2.0 in
  let d = Forcefield.spce_doh in
  let o = center in
  let h1 =
    add center (add (scale (d *. cos half) u) (scale (d *. sin half) v))
  in
  let h2 =
    add center (sub (scale (d *. cos half) u) (scale (d *. sin half) v))
  in
  (* atoms are stored unwrapped so molecules never straddle the
     boundary in coordinate space; kernels apply minimum image *)
  Vec3.set state.Md_state.pos (3 * m) o;
  Vec3.set state.Md_state.pos ((3 * m) + 1) h1;
  Vec3.set state.Md_state.pos ((3 * m) + 2) h2

(** [build ~molecules ~seed ()] is a thermalized water box of
    [molecules] rigid SPC/E waters at 300 K (override with [?temp]). *)
let build ?(temp = 300.0) ~molecules ~seed () =
  if molecules <= 0 then invalid_arg "Water.build: need at least one molecule";
  let rng = Rng.create seed in
  let topo = Topology.water molecules in
  let edge = box_edge molecules in
  let box = Box.cubic edge in
  let state = Md_state.create topo Forcefield.spce box in
  (* lattice with enough sites for all molecules *)
  let per_side =
    int_of_float (Float.ceil (float_of_int molecules ** (1.0 /. 3.0)))
  in
  let spacing = edge /. float_of_int per_side in
  let jitter = 0.08 *. spacing in
  let m = ref 0 in
  (try
     for ix = 0 to per_side - 1 do
       for iy = 0 to per_side - 1 do
         for iz = 0 to per_side - 1 do
           if !m >= molecules then raise Exit;
           let center =
             Vec3.make
               (((float_of_int ix +. 0.5) *. spacing) +. Rng.uniform rng (-.jitter) jitter)
               (((float_of_int iy +. 0.5) *. spacing) +. Rng.uniform rng (-.jitter) jitter)
               (((float_of_int iz +. 0.5) *. spacing) +. Rng.uniform rng (-.jitter) jitter)
           in
           place_molecule state rng !m center;
           incr m
         done
       done
     done
   with Exit -> ());
  Md_state.thermalize state rng temp;
  state
