(** Emulation of the Sunway SIMD unit, lane-count parametric.

    A [vec] holds [w] single-precision lanes, where [w] comes from the
    platform record (4 for the SW26010's 256-bit [floatv4], 8 for the
    SW26010-Pro's 512-bit vectors).  Arithmetic charges exactly one
    vector instruction to the supplied {!Cost.t} regardless of lane
    count, which is what makes vectorization pay off in the
    performance model.  Lane values are rounded through IEEE single
    precision on every operation so that the optimized kernels really
    compute in mixed precision, as the paper's do.  With 4 lanes every
    operation (values and charges) is bit-identical to the historical
    [floatv4] emulation.

    Lanes are stored in single precision, so a store rounds inline.
    Values enter a vector only through {!gather_into} or {!splat_into}
    and leave it only through {!store_into}, {!hsum_into} or
    {!transpose3x4_into}: no op returns a float, so a kernel loop over
    these ops boxes nothing even when compiled without cross-module
    inlining.

    Every operation writes into a caller-owned destination, so the
    kernel inner loops run on a fixed set of scratch vectors and never
    touch the minor heap.  A destination may alias an operand.
    Operand widths must agree; a mismatch raises [Invalid_argument]. *)

type vec

(** [round32 x] is [x] rounded to the nearest representable IEEE-754
    single-precision value. *)
val round32 : float -> float

(** [width v] is the number of lanes in [v]. *)
val width : vec -> int

(** [zero w] is a fresh [w]-lane all-zero vector. *)
val zero : int -> vec

(** [gather_into dst src off idx] sets lane [i] of [dst] to
    [round32 src.(off + idx.(i))]; free (a register load/permute from
    LDM).  [idx] must hold at least [width dst] entries. *)
val gather_into : vec -> float array -> int -> int array -> unit

(** [store_into dst off v] writes lane [i] of [v] to [dst.(off + i)];
    free (a register store to LDM). *)
val store_into : float array -> int -> vec -> unit

(** [hsum_into cost v off len out k] writes the horizontal sum of
    lanes [off .. off+len-1] of [v] to [out.(k)]: adjacent pairs added
    and rounded per halving round, each round charged as one
    shuffle-add vector instruction (2 over 4 lanes, 3 over 8).  [len]
    must be 1, 2, 4 or 8. *)
val hsum_into : Cost.t -> vec -> int -> int -> float array -> int -> unit

(** [splat_into dst x] fills every lane of [dst] with [round32 x]; free. *)
val splat_into : vec -> float -> unit

(** [add_into cost dst x y] writes the lane-wise sum [x + y] into
    [dst]; one vector instruction. *)
val add_into : Cost.t -> vec -> vec -> vec -> unit

(** [sub_into cost dst x y] writes the lane-wise difference [x - y]
    into [dst]; one vector instruction. *)
val sub_into : Cost.t -> vec -> vec -> vec -> unit

(** [mul_into cost dst x y] writes the lane-wise product [x * y] into
    [dst]; one vector instruction. *)
val mul_into : Cost.t -> vec -> vec -> vec -> unit

(** [fma_into cost dst x y z] writes [x*y + z] into [dst], rounded
    once per lane; one (fused) vector instruction. *)
val fma_into : Cost.t -> vec -> vec -> vec -> vec -> unit

(** [round_into cost dst x] writes the lane-wise round-to-nearest of
    [x] into [dst]; one vector instruction (used by the periodic
    minimum-image fold). *)
val round_into : Cost.t -> vec -> vec -> unit

(** [rsqrt_into cost dst x] writes the lane-wise reciprocal square
    root of [x] into [dst]; one vector instruction. *)
val rsqrt_into : Cost.t -> vec -> vec -> unit

(** [cmp_lt_into cost dst x y] writes a lane mask into [dst]: 1.0
    where [x < y], else 0.0; one vector instruction. *)
val cmp_lt_into : Cost.t -> vec -> vec -> vec -> unit

(** [select_into cost dst mask x y] writes lane-wise
    [mask <> 0 ? x : y] into [dst]; one vector instruction. *)
val select_into : Cost.t -> vec -> vec -> vec -> vec -> unit

(** [narrow_into cost dst v] folds [v] down to [dst]'s width: a free
    copy when the widths are equal, one halving-add instruction (upper
    half onto lower half) when [v] is twice as wide.  Any other pair of
    widths raises [Invalid_argument]. *)
val narrow_into : Cost.t -> vec -> vec -> unit

(** [transpose3x4_into cost x y z dst] converts three 4-lane vectors
    holding [x1..x4], [y1..y4], [z1..z4] into the per-particle order
    [x1 y1 z1 ... x4 y4 z4], written as 12 floats into [dst].  Charged
    as the six-[simd_vshuff] sequence of Figure 7 in the paper: six
    vector instructions, no arithmetic. *)
val transpose3x4_into : Cost.t -> vec -> vec -> vec -> float array -> unit
