(** Molecular topology: per-atom metadata plus bonded terms and
    non-bonded exclusions.

    The water benchmark needs molecules (one O + two H), rigid
    constraints and intramolecular exclusions; generic bonded terms
    (bonds, angles, dihedrals) are included so the engine handles the
    protein-like systems GROMACS targets. *)

type bond = { i : int; j : int; r0 : float; k : float }
type angle = { ai : int; aj : int; ak : int; theta0 : float; k_theta : float }
type dihedral = { di : int; dj : int; dk : int; dl : int; phi0 : float; k_phi : float; mult : int }
type constraint_ = { ci : int; cj : int; dist : float }

type t = {
  n_atoms : int;
  type_of : int array;  (** atom -> force-field type id *)
  charge : float array;  (** atom -> charge (e) *)
  mass : float array;  (** atom -> mass (amu) *)
  molecule : int array;  (** atom -> molecule id *)
  bonds : bond array;
  angles : angle array;
  dihedrals : dihedral array;
  constraints : constraint_ array;
  exclusions : int array array;  (** atom -> sorted excluded partners *)
}

(** [validate t] checks index ranges and sizes; raises
    [Invalid_argument] on inconsistency. *)
let validate t =
  let ok i = i >= 0 && i < t.n_atoms in
  if Array.length t.type_of <> t.n_atoms then invalid_arg "Topology: type_of size";
  if Array.length t.charge <> t.n_atoms then invalid_arg "Topology: charge size";
  if Array.length t.mass <> t.n_atoms then invalid_arg "Topology: mass size";
  if Array.length t.molecule <> t.n_atoms then invalid_arg "Topology: molecule size";
  Array.iter (fun (b : bond) -> if not (ok b.i && ok b.j) then invalid_arg "Topology: bond index") t.bonds;
  Array.iter
    (fun (a : angle) ->
      if not (ok a.ai && ok a.aj && ok a.ak) then invalid_arg "Topology: angle index")
    t.angles;
  Array.iter
    (fun (d : dihedral) ->
      if not (ok d.di && ok d.dj && ok d.dk && ok d.dl) then
        invalid_arg "Topology: dihedral index")
    t.dihedrals;
  Array.iter
    (fun (c : constraint_) ->
      if not (ok c.ci && ok c.cj) then invalid_arg "Topology: constraint index")
    t.constraints;
  if Array.length t.exclusions <> t.n_atoms then invalid_arg "Topology: exclusions size"

(* Top-level so [excluded] builds no closure: it runs once per
   candidate pair in the hot non-bonded loops. *)
let rec bsearch (ex : int array) j lo hi =
  if lo >= hi then false
  else
    let mid = (lo + hi) / 2 in
    if ex.(mid) = j then true
    else if ex.(mid) < j then bsearch ex j (mid + 1) hi
    else bsearch ex j lo mid

(** [excluded t i j] is [true] when the non-bonded interaction between
    atoms [i] and [j] must be skipped. *)
let excluded t i j =
  let ex = t.exclusions.(i) in
  bsearch ex j 0 (Array.length ex)

(** [total_charge t] is the sum of all partial charges. *)
let total_charge t = Array.fold_left ( +. ) 0.0 t.charge

(** [degrees_of_freedom t] is [3N - n_constraints - 3] (centre of mass
    motion removed), used to convert kinetic energy to temperature. *)
let degrees_of_freedom t =
  (3 * t.n_atoms) - Array.length t.constraints - 3

(** [water n_molecules] is the topology of [n_molecules] rigid SPC/E
    waters: atoms ordered O,H,H per molecule; constraints O-H1, O-H2,
    H1-H2; full intramolecular exclusions. *)
let water n_molecules =
  if n_molecules <= 0 then invalid_arg "Topology.water: need at least one molecule";
  let n = 3 * n_molecules in
  let type_of = Array.make n 1 and charge = Array.make n 0.0 and mass = Array.make n 0.0 in
  let molecule = Array.make n 0 in
  let constraints = ref [] and exclusions = Array.make n [||] in
  for m = 0 to n_molecules - 1 do
    let o = 3 * m and h1 = (3 * m) + 1 and h2 = (3 * m) + 2 in
    type_of.(o) <- 0;
    charge.(o) <- Forcefield.spce_o.Forcefield.charge;
    charge.(h1) <- Forcefield.spce_h.Forcefield.charge;
    charge.(h2) <- Forcefield.spce_h.Forcefield.charge;
    mass.(o) <- Forcefield.spce_o.Forcefield.mass;
    mass.(h1) <- Forcefield.spce_h.Forcefield.mass;
    mass.(h2) <- Forcefield.spce_h.Forcefield.mass;
    molecule.(o) <- m;
    molecule.(h1) <- m;
    molecule.(h2) <- m;
    constraints :=
      { ci = o; cj = h1; dist = Forcefield.spce_doh }
      :: { ci = o; cj = h2; dist = Forcefield.spce_doh }
      :: { ci = h1; cj = h2; dist = Forcefield.spce_dhh }
      :: !constraints;
    exclusions.(o) <- [| h1; h2 |];
    exclusions.(h1) <- [| o; h2 |];
    exclusions.(h2) <- [| o; h1 |]
  done;
  let t =
    {
      n_atoms = n;
      type_of;
      charge;
      mass;
      molecule;
      bonds = [||];
      angles = [||];
      dihedrals = [||];
      constraints = Array.of_list (List.rev !constraints);
      exclusions;
    }
  in
  validate t;
  t
