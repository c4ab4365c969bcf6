(** Emulation of the Sunway SIMD unit, lane-count parametric.

    A [vec] holds [w] single-precision lanes, where [w] comes from the
    platform record (4 for the SW26010's 256-bit [floatv4], 8 for the
    SW26010-Pro's 512-bit vectors).  Arithmetic charges exactly one
    vector instruction to the supplied {!Cost.t} regardless of lane
    count, which is what makes vectorization pay off in the
    performance model.  Lane values are rounded through IEEE single
    precision on every operation so that the optimized kernels really
    compute in mixed precision, as the paper's do.  With 4 lanes every
    operation (values {e and} charges) is bit-identical to the
    historical [floatv4] emulation.

    The lanes live in a float32 [Bigarray]: storing a lane rounds it
    to single precision inline, which is exactly [round32] of the
    double-precision result.  Values cross into and out of a vector
    only through float arrays ({!gather_into}, {!store_into},
    {!hsum_into}), never as a returned float, so a kernel loop over
    these ops boxes nothing even when the module is compiled opaque.

    Every operation writes into a caller-owned destination, so the
    kernel inner loops run on a fixed set of scratch vectors and never
    touch the minor heap.  A destination may alias an operand: lanes
    are independent and each lane is read before it is written. *)

module A = Bigarray.Array1

type vec = (float, Bigarray.float32_elt, Bigarray.c_layout) A.t

(** [round32 x] is [x] rounded to the nearest representable IEEE-754
    single-precision value. *)
let[@inline] round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(** [width v] is the number of lanes in [v]. *)
let width (v : vec) = A.dim v

(** [zero w] is the [w]-lane all-zero vector. *)
let zero w : vec =
  if w <= 0 then invalid_arg "Simd.zero: width must be positive";
  let v = A.create Bigarray.float32 Bigarray.c_layout w in
  A.fill v 0.0;
  v

let[@inline] check_widths name (x : vec) (y : vec) =
  if A.dim x <> A.dim y then
    invalid_arg
      (Printf.sprintf "Simd.%s: width mismatch (%d vs %d)" name (A.dim x)
         (A.dim y))

let[@inline] check_dst name (dst : vec) (x : vec) =
  if A.dim dst <> A.dim x then
    invalid_arg
      (Printf.sprintf "Simd.%s: width mismatch (dst %d vs %d)" name
         (A.dim dst) (A.dim x))

(** [gather_into dst src off idx] sets lane [i] of [dst] to
    [round32 src.(off + idx.(i))]; free (a register load/permute from
    LDM).  [idx] must hold at least [width dst] entries. *)
let gather_into (dst : vec) (src : float array) off (idx : int array) =
  let n = A.dim dst in
  if Array.length idx < n then invalid_arg "Simd.gather_into: short index table";
  for i = 0 to n - 1 do
    A.unsafe_set dst i src.(off + Array.unsafe_get idx i)
  done

(** [store_into dst off v] writes lane [i] of [v] to [dst.(off + i)];
    free (a register store to LDM). *)
let store_into (dst : float array) off (v : vec) =
  let n = A.dim v in
  if off < 0 || off + n > Array.length dst then invalid_arg "Simd.store_into";
  for i = 0 to n - 1 do
    Array.unsafe_set dst (off + i) (A.unsafe_get v i)
  done

(* one node of the horizontal-sum tree: adjacent partial sums added and
   rounded through single precision *)
let[@inline] node a b = round32 (a +. b)

let[@inline] tree4 (v : vec) o =
  node
    (node (A.unsafe_get v o) (A.unsafe_get v (o + 1)))
    (node (A.unsafe_get v (o + 2)) (A.unsafe_get v (o + 3)))

(** [hsum_into cost v off len out k] writes the horizontal sum of
    lanes [off .. off+len-1] of [v] to [out.(k)]: adjacent pairs added
    and rounded per halving round, each round charged as one
    shuffle-add vector instruction (2 over 4 lanes, 3 over 8).  [len]
    is 1, 2, 4 or 8 — every power of two up to the widest platform
    vector. *)
let hsum_into cost (v : vec) off len (out : float array) k =
  if off < 0 || len <= 0 || off + len > A.dim v then invalid_arg "Simd.hsum_into";
  if k < 0 || k >= Array.length out then invalid_arg "Simd.hsum_into: bad slot";
  let sum =
    match len with
    | 1 -> A.unsafe_get v off
    | 2 ->
        Cost.simd cost 1.0;
        node (A.unsafe_get v off) (A.unsafe_get v (off + 1))
    | 4 ->
        Cost.simd cost 2.0;
        tree4 v off
    | 8 ->
        Cost.simd cost 3.0;
        node (tree4 v off) (tree4 v (off + 4))
    | _ ->
        invalid_arg
          (Printf.sprintf "Simd.hsum_into: %d lanes is not 1, 2, 4 or 8" len)
  in
  Array.unsafe_set out k sum

(** [splat_into dst x] fills every lane of [dst] with [round32 x].
    Free of charge: register broadcasts are folded into the consuming
    instruction. *)
let splat_into (dst : vec) x =
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i x
  done

(** [add_into cost dst x y] writes the lane-wise sum [x + y] into
    [dst]; one vector instruction. *)
let add_into cost (dst : vec) (x : vec) (y : vec) =
  check_widths "add_into" x y;
  check_dst "add_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (A.unsafe_get x i +. A.unsafe_get y i)
  done

(** [sub_into cost dst x y] writes the lane-wise difference [x - y]
    into [dst]; one vector instruction. *)
let sub_into cost (dst : vec) (x : vec) (y : vec) =
  check_widths "sub_into" x y;
  check_dst "sub_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (A.unsafe_get x i -. A.unsafe_get y i)
  done

(** [mul_into cost dst x y] writes the lane-wise product [x * y] into
    [dst]; one vector instruction. *)
let mul_into cost (dst : vec) (x : vec) (y : vec) =
  check_widths "mul_into" x y;
  check_dst "mul_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (A.unsafe_get x i *. A.unsafe_get y i)
  done

(** [fma_into cost dst x y z] writes [x*y + z] into [dst], rounded
    once per lane; one (fused) vector instruction. *)
let fma_into cost (dst : vec) (x : vec) (y : vec) (z : vec) =
  check_widths "fma_into" x y;
  check_widths "fma_into" x z;
  check_dst "fma_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i
      ((A.unsafe_get x i *. A.unsafe_get y i) +. A.unsafe_get z i)
  done

(** [round_into cost dst x] writes the lane-wise round-to-nearest of
    [x] into [dst]; one vector instruction (used by the periodic
    minimum-image fold).  A rounded single-precision value is itself
    single precision, so the store is exact. *)
let round_into cost (dst : vec) (x : vec) =
  check_dst "round_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (Float.round (A.unsafe_get x i))
  done

(** [rsqrt_into cost dst x] writes the lane-wise reciprocal square
    root of [x] into [dst] (charged as one vector instruction, matching
    the hardware estimate+refine sequence the paper's kernels use). *)
let rsqrt_into cost (dst : vec) (x : vec) =
  check_dst "rsqrt_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (1.0 /. sqrt (A.unsafe_get x i))
  done

(** [cmp_lt_into cost dst x y] writes a lane mask into [dst]: 1.0
    where [x < y], else 0.0; one vector instruction. *)
let cmp_lt_into cost (dst : vec) (x : vec) (y : vec) =
  check_widths "cmp_lt_into" x y;
  check_dst "cmp_lt_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i (if A.unsafe_get x i < A.unsafe_get y i then 1.0 else 0.0)
  done

(** [select_into cost dst mask x y] writes lane-wise
    [mask <> 0 ? x : y] into [dst]; one vector instruction. *)
let select_into cost (dst : vec) (mask : vec) (x : vec) (y : vec) =
  check_widths "select_into" mask x;
  check_widths "select_into" mask y;
  check_dst "select_into" dst mask;
  Cost.simd cost 1.0;
  for i = 0 to A.dim dst - 1 do
    A.unsafe_set dst i
      (if A.unsafe_get mask i <> 0.0 then A.unsafe_get x i else A.unsafe_get y i)
  done

(** [narrow_into cost dst v] folds [v] down to [dst]'s width: a free
    copy when the widths match, one halving-add instruction (upper
    half onto lower half) when [v] is twice as wide.  Those two shapes
    cover both real platforms (4 -> 4 and 8 -> 4); anything else
    raises. *)
let narrow_into cost (dst : vec) (v : vec) =
  let n = A.dim dst and w = A.dim v in
  if w = n then (if dst != v then A.blit v dst)
  else if w = 2 * n then begin
    Cost.simd cost 1.0;
    for i = 0 to n - 1 do
      A.unsafe_set dst i (A.unsafe_get v i +. A.unsafe_get v (i + n))
    done
  end
  else invalid_arg "Simd.narrow_into: width must equal or double dst"

(** [transpose3x4_into cost x y z dst] converts three 4-lane vectors
    holding [x1..x4], [y1..y4], [z1..z4] into the per-particle order
    [x1 y1 z1 x2 y2 z2 x3 y3 z3 x4 y4 z4], written as 12 floats into
    [dst].  On the hardware this is the six-[simd_vshuff] sequence of
    Figure 7 in the paper; the shuffles move lanes without arithmetic,
    so the values are a pure permutation of the inputs and the charge
    is six vector instructions. *)
let transpose3x4_into cost (x : vec) (y : vec) (z : vec) (dst : float array) =
  if width x <> 4 || width y <> 4 || width z <> 4 then
    invalid_arg "Simd.transpose3x4_into: width must be 4";
  if Array.length dst < 12 then invalid_arg "Simd.transpose3x4_into: dst < 12";
  Cost.simd cost 6.0;
  for i = 0 to 3 do
    dst.(3 * i) <- A.unsafe_get x i;
    dst.((3 * i) + 1) <- A.unsafe_get y i;
    dst.((3 * i) + 2) <- A.unsafe_get z i
  done
