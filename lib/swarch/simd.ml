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

    Every operation writes into a caller-owned destination vector, so
    the kernel inner loops run on a fixed set of scratch vectors and
    never touch the minor heap.  A destination may alias an operand:
    lanes are independent and each lane is read before it is
    written. *)

type vec = float array

(** [round32 x] is [x] rounded to the nearest representable IEEE-754
    single-precision value. *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(** [width v] is the number of lanes in [v]. *)
let width (v : vec) = Array.length v

(** [zero w] is the [w]-lane all-zero vector. *)
let zero w : vec =
  if w <= 0 then invalid_arg "Simd.zero: width must be positive";
  Array.make w 0.0

(** [lane v i] extracts lane [i]. *)
let lane (v : vec) i =
  if i < 0 || i >= Array.length v then
    invalid_arg
      (Printf.sprintf "Simd.lane: %d not in 0..%d" i (Array.length v - 1));
  v.(i)

(* Tree sum over a power-of-two lane range: adjacent pairs are added
   and rounded through round32 at every internal node, one shuffle-add
   vector instruction per halving round. *)
let rec hsum_pow2 (v : vec) lo len =
  if len = 1 then v.(lo)
  else
    let h = len / 2 in
    round32 (hsum_pow2 v lo h +. hsum_pow2 v (lo + h) h)

let tree_sum name cost (v : vec) off len =
  if len land (len - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Simd.%s: %d lanes is not a power of two" name len);
  let w = ref len in
  while !w > 1 do
    Cost.simd cost 1.0;
    w := !w / 2
  done;
  hsum_pow2 v off len

(** [hsum cost v] is the horizontal sum of the lanes, charged as one
    shuffle-add vector instruction per halving round (2 at 4 lanes, 3
    at 8); the width must be a power of two. *)
let hsum cost (v : vec) = tree_sum "hsum" cost v 0 (Array.length v)

(** [hsum_part cost v off len] is the horizontal sum of lanes
    [off .. off+len-1], the same tree and charges as {!hsum} over a
    [len]-lane vector; [len] must be a power of two. *)
let hsum_part cost (v : vec) off len =
  if off < 0 || len <= 0 || off + len > Array.length v then
    invalid_arg "Simd.hsum_part";
  tree_sum "hsum_part" cost v off len

let check_widths name (x : vec) (y : vec) =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Simd.%s: width mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let check_dst name (dst : vec) (x : vec) =
  if Array.length dst <> Array.length x then
    invalid_arg
      (Printf.sprintf "Simd.%s: width mismatch (dst %d vs %d)" name
         (Array.length dst) (Array.length x))

(** [splat_into dst x] fills every lane of [dst] with [round32 x].
    Free of charge: register broadcasts are folded into the consuming
    instruction. *)
let splat_into (dst : vec) x =
  let v = round32 x in
  Array.fill dst 0 (Array.length dst) v

(** [init_into dst f] sets lane [i] of [dst] to [round32 (f i)], in
    ascending lane order; free (a register load/permute from LDM). *)
let init_into (dst : vec) f =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (f i)
  done

let lift2_into name cost f (dst : vec) (x : vec) (y : vec) =
  check_widths name x y;
  check_dst name dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (f x.(i) y.(i))
  done

(** [add_into cost dst x y] writes the lane-wise sum [x + y] into
    [dst]; one vector instruction. *)
let add_into cost dst x y = lift2_into "add_into" cost ( +. ) dst x y

(** [sub_into cost dst x y] writes the lane-wise difference [x - y]
    into [dst]; one vector instruction. *)
let sub_into cost dst x y = lift2_into "sub_into" cost ( -. ) dst x y

(** [mul_into cost dst x y] writes the lane-wise product [x * y] into
    [dst]; one vector instruction. *)
let mul_into cost dst x y = lift2_into "mul_into" cost ( *. ) dst x y

(** [fma_into cost dst x y z] writes [x*y + z] into [dst], rounded
    once per lane; one (fused) vector instruction. *)
let fma_into cost (dst : vec) (x : vec) (y : vec) (z : vec) =
  check_widths "fma_into" x y;
  check_widths "fma_into" x z;
  check_dst "fma_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 ((x.(i) *. y.(i)) +. z.(i))
  done

(** [round_into cost dst x] writes the lane-wise round-to-nearest of
    [x] into [dst]; one vector instruction (used by the periodic
    minimum-image fold). *)
let round_into cost (dst : vec) (x : vec) =
  check_dst "round_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- Float.round x.(i)
  done

(** [rsqrt_into cost dst x] writes the lane-wise reciprocal square
    root of [x] into [dst] (charged as one vector instruction, matching
    the hardware estimate+refine sequence the paper's kernels use). *)
let rsqrt_into cost (dst : vec) (x : vec) =
  check_dst "rsqrt_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (1.0 /. sqrt x.(i))
  done

(** [cmp_lt_into cost dst x y] writes a lane mask into [dst]: 1.0
    where [x < y], else 0.0; one vector instruction. *)
let cmp_lt_into cost (dst : vec) (x : vec) (y : vec) =
  check_widths "cmp_lt_into" x y;
  check_dst "cmp_lt_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (if x.(i) < y.(i) then 1.0 else 0.0)
  done

(** [select_into cost dst mask x y] writes lane-wise
    [mask <> 0 ? x : y] into [dst]; one vector instruction. *)
let select_into cost (dst : vec) (mask : vec) (x : vec) (y : vec) =
  check_widths "select_into" mask x;
  check_widths "select_into" mask y;
  check_dst "select_into" dst mask;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (if mask.(i) <> 0.0 then x.(i) else y.(i))
  done

(** [narrow_into cost dst v] folds [v] down to [dst]'s width: a free
    copy when the widths match, one halving-add instruction (upper
    half onto lower half) when [v] is twice as wide.  Those two shapes
    cover both real platforms (4 -> 4 and 8 -> 4); anything else
    raises. *)
let narrow_into cost (dst : vec) (v : vec) =
  let n = Array.length dst and w = Array.length v in
  if w = n then (if dst != v then Array.blit v 0 dst 0 n)
  else if w = 2 * n then begin
    Cost.simd cost 1.0;
    for i = 0 to n - 1 do
      dst.(i) <- round32 (v.(i) +. v.(i + n))
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
    dst.(3 * i) <- x.(i);
    dst.((3 * i) + 1) <- y.(i);
    dst.((3 * i) + 2) <- z.(i)
  done
