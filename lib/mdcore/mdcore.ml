(** GROMACS-like molecular dynamics engine.

    The substrate the paper's optimizations run on: a from-scratch MD
    engine with the same algorithmic structure as GROMACS 5.x —
    cluster-based Verlet pair lists, Lennard-Jones + Ewald/PME
    electrostatics, bonded terms, leapfrog integration, SHAKE
    constraints and a water-box workload generator.

    Everything here is plain double-precision OCaml and serves as the
    correctness oracle for the optimized kernels in {!Swgmx}. *)

module Rng = Rng
module Fbuf = Fbuf
module Vec3 = Vec3
module Box = Box
module Forcefield = Forcefield
module Topology = Topology
module Md_state = Md_state
module Water = Water
module Cell_grid = Cell_grid
module Cluster = Cluster
module Pair_list = Pair_list
module Lj = Lj
module Coulomb = Coulomb
module Fft = Fft
module Pme = Pme
module Bonded = Bonded
module Integrator = Integrator
module Thermostat = Thermostat
module Constraints = Constraints
module Energy = Energy
module Nonbonded = Nonbonded
module Workflow = Workflow
