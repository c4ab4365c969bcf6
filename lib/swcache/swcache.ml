(** Software cache strategies for the SW26010 scratchpad.

    The paper's central memory optimizations are software caches built
    in each CPE's 64 KB LDM:

    - {!Read_cache}: read cache over particle packages, direct-mapped
      for the force kernels (Figure 3) and two-way set-associative for
      pair-list generation, where it ends the thrashing of Section 3.5;
    - {!Write_cache}: deferred-update write cache that accumulates
      force deltas on-chip (Figure 4), optionally with
    - {!Bitmap} update marks (Figure 5, Algorithms 3-4) that desert the
      initialization step and skip meaningless reduction traffic.

    All caches execute real data movement (results are exact) while
    charging DMA and instruction costs to a {!Swarch.Cost.t}. *)

module Stats = Stats
module Bitmap = Bitmap
module Read_cache = Read_cache
module Write_cache = Write_cache
