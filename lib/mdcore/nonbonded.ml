(** Reference short-range non-bonded kernel (Algorithm 1).

    A plain double-precision, scalar implementation of the cluster
    pair-list force loop: the golden result every optimized kernel in
    {!Swgmx} must reproduce.  Interactions inside [rcut] get
    Lennard-Jones plus the configured electrostatics; excluded pairs
    are skipped (and, under Ewald, corrected).

    The pair loop is written against the flat {!Fbuf.t} state with the
    minimum-image, Lennard-Jones and Ewald/reaction-field arithmetic
    inlined by hand: without flambda, every cross-module call with
    float arguments or results boxes, so the only way to keep the loop
    at zero allocations per interaction is to keep the math in the
    loop body.  The inlined expressions reproduce {!Box.mi1},
    {!Lj.energy}/{!Lj.force_over_r} and the {!Coulomb} pair kernels
    operation for operation — the test suite pins bit-identity against
    those module-level definitions. *)

module A = Bigarray.Array1

type electrostatics =
  | Reaction_field  (** cut-off Coulomb with conducting reaction field *)
  | Ewald_real of float  (** real-space Ewald with splitting beta *)

type params = {
  rcut : float;  (** interaction cut-off (Table 3: 1.0 nm) *)
  elec : electrostatics;
}

(** [default_params] is the water benchmark setting: 1.0 nm cut-off
    with real-space Ewald at GROMACS's default tolerance. *)
let default_params =
  { rcut = 1.0; elec = Ewald_real (Coulomb.ewald_beta ~rc:1.0 ~tolerance:1e-5) }

(** [compute state cluster pairs params energy] evaluates all
    short-range non-bonded forces through the half cluster pair list,
    adding forces into [state.force] and energies into [energy].
    Returns the number of particle pairs inside the cut-off.

    Allocation-free per pair: displacements come from inlined
    minimum-image index arithmetic on the position buffer and energies
    accumulate into the flat-float [energy] record. *)
let compute (state : Md_state.t) (cl : Cluster.t) (pairs : Pair_list.t)
    (params : params) (energy : Energy.t) =
  let box = state.Md_state.box in
  let topo = state.Md_state.topo in
  let ff = state.Md_state.ff in
  let pos = state.Md_state.pos and force = state.Md_state.force in
  let lx = box.Box.lx and ly = box.Box.ly and lz = box.Box.lz in
  let charge = topo.Topology.charge and type_of = topo.Topology.type_of in
  let c6t = ff.Forcefield.c6 and c12t = ff.Forcefield.c12 in
  let ntypes = Array.length ff.Forcefield.types in
  let rcut2 = params.rcut *. params.rcut in
  let krf, crf =
    match params.elec with
    | Reaction_field -> Coulomb.rf_constants ~rc:params.rcut
    | Ewald_real _ -> (0.0, 0.0)
  in
  let is_rf, beta =
    match params.elec with
    | Reaction_field -> (true, 0.0)
    | Ewald_real beta -> (false, beta)
  in
  let n_inside = ref 0 in
  Pair_list.iter_pairs pairs (fun ci cj ->
      let ni = Cluster.count cl ci and nj = Cluster.count cl cj in
      for mi = 0 to ni - 1 do
        let a = Cluster.atom cl ci mi in
        let mj_start = if ci = cj then mi + 1 else 0 in
        for mj = mj_start to nj - 1 do
          let b = Cluster.atom cl cj mj in
          if not (Topology.excluded topo a b) then begin
            (* Box.displacement, inlined per component (Box.mi1) *)
            let dx0 = A.unsafe_get pos (3 * a) -. A.unsafe_get pos (3 * b) in
            let dy0 =
              A.unsafe_get pos ((3 * a) + 1) -. A.unsafe_get pos ((3 * b) + 1)
            in
            let dz0 =
              A.unsafe_get pos ((3 * a) + 2) -. A.unsafe_get pos ((3 * b) + 2)
            in
            let dx = dx0 -. (lx *. Float.round (dx0 /. lx)) in
            let dy = dy0 -. (ly *. Float.round (dy0 /. ly)) in
            let dz = dz0 -. (lz *. Float.round (dz0 /. lz)) in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            if r2 <= rcut2 && r2 > 0.0 then begin
              incr n_inside;
              let ta = type_of.(a) and tb = type_of.(b) in
              let ti = (ta * ntypes) + tb in
              let c6 = c6t.(ti) and c12 = c12t.(ti) in
              let qq = charge.(a) *. charge.(b) in
              (* Lj.force_over_r / Lj.energy, inlined *)
              let inv_r2 = 1.0 /. r2 in
              let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
              let f_lj =
                ((12.0 *. c12 *. inv_r6 *. inv_r6) -. (6.0 *. c6 *. inv_r6))
                *. inv_r2
              in
              energy.Energy.lj <-
                energy.Energy.lj
                +. ((c12 *. inv_r6 *. inv_r6) -. (c6 *. inv_r6));
              let r = sqrt r2 in
              (* Coulomb pair kernels, inlined; the Ewald branch
                 evaluates the A&S 7.1.26 erfc approximation once per
                 quantity, exactly as the module-level functions do.
                 Separate [e_el]/[f_el] bindings instead of a tuple:
                 a tuple would allocate per pair. *)
              let e_el =
                if is_rf then
                  Forcefield.ke *. qq *. ((1.0 /. r) +. (krf *. r2) -. crf)
                else begin
                  let br = beta *. r in
                  let ax = Float.abs br in
                  let t = 1.0 /. (1.0 +. (0.3275911 *. ax)) in
                  let poly =
                    t
                    *. (0.254829592
                       +. (t
                          *. (-0.284496736
                             +. (t
                                *. (1.421413741
                                   +. (t
                                      *. (-1.453152027 +. (t *. 1.061405429))))))))
                  in
                  let ec0 = poly *. exp (-.ax *. ax) in
                  let ec = if br >= 0.0 then ec0 else 2.0 -. ec0 in
                  Forcefield.ke *. qq *. ec /. r
                end
              in
              let f_el =
                if is_rf then
                  Forcefield.ke *. qq *. ((1.0 /. (r2 *. r)) -. (2.0 *. krf))
                else begin
                  let br = beta *. r in
                  let ax = Float.abs br in
                  let t = 1.0 /. (1.0 +. (0.3275911 *. ax)) in
                  let poly =
                    t
                    *. (0.254829592
                       +. (t
                          *. (-0.284496736
                             +. (t
                                *. (1.421413741
                                   +. (t
                                      *. (-1.453152027 +. (t *. 1.061405429))))))))
                  in
                  let ec0 = poly *. exp (-.ax *. ax) in
                  let ec = if br >= 0.0 then ec0 else 2.0 -. ec0 in
                  Forcefield.ke *. qq
                  *. ((ec /. r)
                     +. (2.0 *. beta /. sqrt Float.pi *. exp (-.br *. br)))
                  /. r2
                end
              in
              energy.Energy.coulomb_sr <- energy.Energy.coulomb_sr +. e_el;
              let f_over_r = f_lj +. f_el in
              (* Vec3.axpy force a f_over_r d, inlined *)
              A.unsafe_set force (3 * a)
                (A.unsafe_get force (3 * a) +. (f_over_r *. dx));
              A.unsafe_set force ((3 * a) + 1)
                (A.unsafe_get force ((3 * a) + 1) +. (f_over_r *. dy));
              A.unsafe_set force ((3 * a) + 2)
                (A.unsafe_get force ((3 * a) + 2) +. (f_over_r *. dz));
              let nf = -.f_over_r in
              A.unsafe_set force (3 * b)
                (A.unsafe_get force (3 * b) +. (nf *. dx));
              A.unsafe_set force ((3 * b) + 1)
                (A.unsafe_get force ((3 * b) + 1) +. (nf *. dy));
              A.unsafe_set force ((3 * b) + 2)
                (A.unsafe_get force ((3 * b) + 2) +. (nf *. dz))
            end
          end
        done
      done);
  !n_inside

(** [excluded_corrections state params energy] applies the Ewald
    correction for excluded intramolecular pairs (they are absent from
    the short-range sum but present in the reciprocal sum and must be
    cancelled).  No-op under reaction field.  Uses the same
    index-based minimum-image displacement as the pair loop instead of
    allocating [Vec3.t] records. *)
let excluded_corrections (state : Md_state.t) (params : params)
    (energy : Energy.t) =
  match params.elec with
  | Reaction_field -> ()
  | Ewald_real beta ->
      let topo = state.Md_state.topo in
      let box = state.Md_state.box in
      let pos = state.Md_state.pos and force = state.Md_state.force in
      let lx = box.Box.lx and ly = box.Box.ly and lz = box.Box.lz in
      for a = 0 to topo.Topology.n_atoms - 1 do
        let partners = topo.Topology.exclusions.(a) in
        for k = 0 to Array.length partners - 1 do
          let b = partners.(k) in
          if b > a then begin
            let qq = topo.Topology.charge.(a) *. topo.Topology.charge.(b) in
            let dx0 = A.unsafe_get pos (3 * a) -. A.unsafe_get pos (3 * b) in
            let dy0 =
              A.unsafe_get pos ((3 * a) + 1) -. A.unsafe_get pos ((3 * b) + 1)
            in
            let dz0 =
              A.unsafe_get pos ((3 * a) + 2) -. A.unsafe_get pos ((3 * b) + 2)
            in
            let dx = dx0 -. (lx *. Float.round (dx0 /. lx)) in
            let dy = dy0 -. (ly *. Float.round (dy0 /. ly)) in
            let dz = dz0 -. (lz *. Float.round (dz0 /. lz)) in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
            if r2 > 0.0 then begin
              energy.Energy.coulomb_recip <-
                energy.Energy.coulomb_recip
                +. Coulomb.excluded_correction_energy ~beta ~qq r2;
              let f = Coulomb.excluded_correction_force_over_r ~beta ~qq r2 in
              A.unsafe_set force (3 * a)
                (A.unsafe_get force (3 * a) +. (f *. dx));
              A.unsafe_set force ((3 * a) + 1)
                (A.unsafe_get force ((3 * a) + 1) +. (f *. dy));
              A.unsafe_set force ((3 * a) + 2)
                (A.unsafe_get force ((3 * a) + 2) +. (f *. dz));
              let nf = -.f in
              A.unsafe_set force (3 * b)
                (A.unsafe_get force (3 * b) +. (nf *. dx));
              A.unsafe_set force ((3 * b) + 1)
                (A.unsafe_get force ((3 * b) + 1) +. (nf *. dy));
              A.unsafe_set force ((3 * b) + 2)
                (A.unsafe_get force ((3 * b) + 2) +. (nf *. dz))
            end
          end
        done
      done

(** [brute_force state params energy] evaluates the same interactions
    by direct O(n^2) enumeration — the oracle the pair-list path is
    validated against in tests.  Shares the index-based displacement
    style; being an oracle it calls the module-level {!Lj}/{!Coulomb}
    kernels rather than the inlined copies. *)
let brute_force (state : Md_state.t) (params : params) (energy : Energy.t) =
  let topo = state.Md_state.topo in
  let box = state.Md_state.box in
  let ff = state.Md_state.ff in
  let pos = state.Md_state.pos and force = state.Md_state.force in
  let lx = box.Box.lx and ly = box.Box.ly and lz = box.Box.lz in
  let rcut2 = params.rcut *. params.rcut in
  let krf, crf =
    match params.elec with
    | Reaction_field -> Coulomb.rf_constants ~rc:params.rcut
    | Ewald_real _ -> (0.0, 0.0)
  in
  let n = topo.Topology.n_atoms in
  let count = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if not (Topology.excluded topo a b) then begin
        let dx0 = A.unsafe_get pos (3 * a) -. A.unsafe_get pos (3 * b) in
        let dy0 =
          A.unsafe_get pos ((3 * a) + 1) -. A.unsafe_get pos ((3 * b) + 1)
        in
        let dz0 =
          A.unsafe_get pos ((3 * a) + 2) -. A.unsafe_get pos ((3 * b) + 2)
        in
        let dx = dx0 -. (lx *. Float.round (dx0 /. lx)) in
        let dy = dy0 -. (ly *. Float.round (dy0 /. ly)) in
        let dz = dz0 -. (lz *. Float.round (dz0 /. lz)) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 <= rcut2 && r2 > 0.0 then begin
          incr count;
          let ta = topo.Topology.type_of.(a) and tb = topo.Topology.type_of.(b) in
          let c6 = Forcefield.c6 ff ta tb and c12 = Forcefield.c12 ff ta tb in
          let qq = topo.Topology.charge.(a) *. topo.Topology.charge.(b) in
          energy.Energy.lj <- energy.Energy.lj +. Lj.energy ~c6 ~c12 r2;
          let f_el, e_el =
            match params.elec with
            | Reaction_field ->
                ( Coulomb.rf_force_over_r ~krf ~qq r2,
                  Coulomb.rf_energy ~krf ~crf ~qq r2 )
            | Ewald_real beta ->
                ( Coulomb.ewald_real_force_over_r ~beta ~qq r2,
                  Coulomb.ewald_real_energy ~beta ~qq r2 )
          in
          energy.Energy.coulomb_sr <- energy.Energy.coulomb_sr +. e_el;
          let f_over_r = Lj.force_over_r ~c6 ~c12 r2 +. f_el in
          A.unsafe_set force (3 * a) (A.unsafe_get force (3 * a) +. (f_over_r *. dx));
          A.unsafe_set force ((3 * a) + 1)
            (A.unsafe_get force ((3 * a) + 1) +. (f_over_r *. dy));
          A.unsafe_set force ((3 * a) + 2)
            (A.unsafe_get force ((3 * a) + 2) +. (f_over_r *. dz));
          let nf = -.f_over_r in
          A.unsafe_set force (3 * b) (A.unsafe_get force (3 * b) +. (nf *. dx));
          A.unsafe_set force ((3 * b) + 1)
            (A.unsafe_get force ((3 * b) + 1) +. (nf *. dy));
          A.unsafe_set force ((3 * b) + 2)
            (A.unsafe_get force ((3 * b) + 2) +. (nf *. dz))
        end
      end
    done
  done;
  !count
