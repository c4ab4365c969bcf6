(** Sunway many-core architecture simulator.

    This library models the node architecture the paper targets: core
    groups of one management element (MPE) and a mesh of compute
    elements (CPEs), each CPE with a scratchpad (LDM), a DMA engine
    whose bandwidth depends on transfer size, expensive global
    load/store, and a single-precision SIMD unit.  Every dimension of
    the machine — CPE count, LDM capacity, SIMD width, the DMA curve —
    comes from a first-class {!Platform} record; [Platform.sw26010]
    (the paper's TaihuLight chip) is the default, [sw26010_pro] the
    second built-in backend.

    Kernels written against this library execute their real arithmetic
    in OCaml (so results are checkable) while charging a cost model
    that converts instruction and transfer counts into simulated time. *)

module Platform = Platform
module Config = Config
module Cost = Cost
module Dma = Dma
module Ldm = Ldm
module Simd = Simd
module Cpe = Cpe
module Mpe = Mpe
module Core_group = Core_group
module Platforms = Platforms
