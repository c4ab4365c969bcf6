(* Unit and property tests for the SW26010 architecture simulator. *)

open Swarch

(* tolerance class: physical-drift (Swverify.Tol.drift) — cost-model
   arithmetic accumulates rounding; nothing here needs bit-identity *)
let feq ?(eps = 1e-9) a b = Swverify.Tol.close (Swverify.Tol.drift eps) a b

let check_float ?(eps = 1e-9) msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift eps) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_default_valid () = Config.validate Config.default

let test_config_peak_bw () =
  check_float "peak is last table point" 30.48e9 (Config.peak_dma_bw Config.default)

let test_config_rejects_bad () =
  let bad = { Config.default with Config.cpe_count = 0 } in
  Alcotest.check_raises "zero cpes" (Invalid_argument "Platform: cpe_count must be positive")
    (fun () -> Config.validate bad)

let test_config_rejects_unsorted () =
  let bad = { Config.default with Config.dma_points = [| (128, 1e9); (8, 2e9) |] } in
  Alcotest.check_raises "unsorted" (Invalid_argument "Platform: dma_points must be size-sorted")
    (fun () -> Config.validate bad)

(* ------------------------------------------------------------------ *)
(* Dma *)

let test_dma_table2_points () =
  (* The model must pass exactly through the measured Table 2 points. *)
  List.iter
    (fun (size, bw) -> check_float (Printf.sprintf "bw at %dB" size) bw (Dma.bandwidth Config.default size))
    [ (8, 0.99e9); (128, 15.77e9); (256, 28.88e9); (512, 28.98e9); (2048, 30.48e9) ]

let test_dma_monotone_regions () =
  (* Bandwidth never decreases with size on the Table 2 curve. *)
  let prev = ref 0.0 in
  for s = 1 to 4096 do
    let bw = Dma.bandwidth Config.default s in
    Alcotest.(check bool) "monotone" true (bw >= !prev -. 1.0);
    prev := bw
  done

let test_dma_plateau () =
  check_float "beyond last point = plateau" 30.48e9 (Dma.bandwidth Config.default 65536)

let test_dma_small_latency_bound () =
  (* A 4-byte transfer must be slower than half the 8-byte bandwidth. *)
  let bw4 = Dma.bandwidth Config.default 4 in
  check_float "4B is half of 8B" (0.99e9 /. 2.0) bw4

let test_dma_charges_cost () =
  let c = Cost.create () in
  Dma.get Config.default c ~bytes:256;
  Dma.put Config.default c ~bytes:256;
  Alcotest.(check int) "two transactions" 2 (Cost.transactions c);
  check_float "bytes" 512.0 c.Cost.dma_bytes;
  check_float "time" (2.0 *. 256.0 /. 28.88e9) c.Cost.dma_time_s

let test_dma_zero_bytes_free () =
  let c = Cost.create () in
  Dma.get Config.default c ~bytes:0;
  Alcotest.(check int) "no transaction" 0 (Cost.transactions c)

let test_dma_unaligned_penalty () =
  let ca = Cost.create () and cu = Cost.create () in
  Dma.get Config.default ca ~bytes:96;
  Dma.get ~aligned:false Config.default cu ~bytes:96;
  Alcotest.(check bool) "unaligned slower" true (cu.Cost.dma_time_s > ca.Cost.dma_time_s);
  check_float "same bytes" ca.Cost.dma_bytes cu.Cost.dma_bytes

let test_cg_elapsed_parts () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  (* compute (1 s) on one CPE, one small transfer on another: the
     serial elapsed is the critical path plus the bus time *)
  check_float "critical path" 1.0 (Core_group.max_compute_time g);
  check_float "bus time"
    (Dma.transfer_time Config.default 2048 /. Config.default.Config.dma_channels)
    (Core_group.dma_time g);
  Alcotest.(check (float 0.0)) "elapsed = compute + DMA + MPE"
    (Core_group.max_compute_time g +. Core_group.dma_time g
    +. Mpe.time Config.default g.Core_group.mpe)
    (Core_group.elapsed g)

let prop_dma_bigger_never_slower =
  QCheck.Test.make ~name:"dma: time grows with size" ~count:200
    QCheck.(pair (int_range 1 4000) (int_range 1 4000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Dma.transfer_time Config.default lo <= Dma.transfer_time Config.default hi +. 1e-15)

let prop_dma_aggregation_wins =
  (* Moving N bytes as one transfer is never slower than as k chunks. *)
  QCheck.Test.make ~name:"dma: one big transfer beats many small" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 8 512))
    (fun (k, chunk) ->
      let total = k * chunk in
      Dma.transfer_time Config.default total
      <= (float_of_int k *. Dma.transfer_time Config.default chunk) +. 1e-15)

(* ------------------------------------------------------------------ *)
(* Ldm *)

let test_ldm_alloc_free () =
  let l = Ldm.create ~capacity:1024 in
  Ldm.alloc l 512;
  Alcotest.(check int) "used" 512 (Ldm.used l);
  Alcotest.(check int) "available" 512 (Ldm.available l);
  Ldm.free l 512;
  Alcotest.(check int) "freed" 0 (Ldm.used l);
  Alcotest.(check int) "high water" 512 (Ldm.high_water l)

let test_ldm_overflow () =
  let l = Ldm.create ~capacity:100 in
  Ldm.alloc l 60;
  (match Ldm.alloc l 60 with
  | () -> Alcotest.fail "expected Out_of_ldm"
  | exception Ldm.Out_of_ldm { requested; available } ->
      Alcotest.(check int) "requested" 60 requested;
      Alcotest.(check int) "available" 40 available)

let test_ldm_with_alloc_releases_on_raise () =
  let l = Ldm.create ~capacity:100 in
  (try Ldm.with_alloc l 80 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "released" 0 (Ldm.used l)

let test_ldm_capacity_is_64k () =
  let cpe = Cpe.create Config.default 0 in
  Alcotest.(check int) "64 KB" 65536 (Ldm.available cpe.Cpe.ldm)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_add () =
  let a = Cost.create () and b = Cost.create () in
  Cost.flops a 10.0;
  Cost.simd b 5.0;
  Cost.gld b 3;
  Cost.add ~into:a b;
  check_float "flops kept" 10.0 a.Cost.scalar_flops;
  check_float "simd added" 5.0 a.Cost.simd_ops;
  Alcotest.(check int) "gld added" 3 (int_of_float a.Cost.gld_count)

let test_cost_cpe_time () =
  let c = Cost.create () in
  Cost.flops c 1.45e9;
  (* 1.45e9 flops at 1 flop/cycle at 1.45 GHz = 1 second *)
  check_float "one second" 1.0 (Cost.cpe_compute_time Config.default c)

let test_cost_gld_latency () =
  let c = Cost.create () in
  Cost.gld c 1000;
  check_float "gld time" (1000.0 *. Config.default.Config.gld_latency_s)
    (Cost.cpe_compute_time Config.default c)

let test_cost_mpe_time () =
  let c = Cost.create () in
  Cost.mpe_flops c (Config.default.Config.mpe_flops_per_cycle *. 1.45e9);
  check_float "mpe 1s" 1.0 (Cost.mpe_time Config.default c)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.flops c 5.0;
  Cost.gld c 2;
  Cost.reset c;
  check_float "flops zero" 0.0 c.Cost.scalar_flops;
  Alcotest.(check int) "gld zero" 0 (int_of_float c.Cost.gld_count)

(* ------------------------------------------------------------------ *)
(* Simd, at the 4 lanes of the SW26010 and the 8 of the SW26010-Pro.
   Each op is checked against scalar round32 arithmetic on
   already-rounded lanes, bit for bit, and for its charge. *)

let r32 = Simd.round32
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the lanes of [v], read back through a store *)
let lanes v =
  let a = Array.make (Simd.width v) nan in
  Simd.store_into a 0 v;
  a

let check_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Invalid_argument _ -> ()

(* vectors are built the way the kernels load them: a gather through
   an index table *)
let vec w f =
  let v = Simd.zero w in
  Simd.gather_into v (Array.init w f) 0 (Array.init w Fun.id);
  v

(* A lane-wise op: how many operands it reads, the op itself
   (destination first), what it computes on one lane, and the inputs
   it is fed (rsqrt gets magnitudes). *)
type lanewise = {
  name : string;
  arity : int;
  run : Cost.t -> Simd.vec -> Simd.vec array -> unit;
  scalar : float array -> float;
  input : float -> float;
}

let lanewise_ops =
  let op name arity run scalar = { name; arity; run; scalar; input = Fun.id } in
  let unary name f g = op name 1 (fun c d a -> f c d a.(0)) (fun l -> g l.(0)) in
  let binary name f g =
    op name 2 (fun c d a -> f c d a.(0) a.(1)) (fun l -> g l.(0) l.(1))
  in
  let ternary name f g =
    op name 3
      (fun c d a -> f c d a.(0) a.(1) a.(2))
      (fun l -> g l.(0) l.(1) l.(2))
  in
  [
    binary "add_into" Simd.add_into (fun a b -> r32 (a +. b));
    binary "sub_into" Simd.sub_into (fun a b -> r32 (a -. b));
    binary "mul_into" Simd.mul_into (fun a b -> r32 (a *. b));
    ternary "fma_into" Simd.fma_into (fun a b c -> r32 ((a *. b) +. c));
    unary "round_into" Simd.round_into Float.round;
    {
      (unary "rsqrt_into" Simd.rsqrt_into (fun a -> r32 (1.0 /. sqrt a))) with
      input = Float.abs;
    };
    binary "cmp_lt_into" Simd.cmp_lt_into (fun a b ->
        if a < b then 1.0 else 0.0);
    ternary "select_into" Simd.select_into (fun m a b ->
        if m <> 0.0 then a else b);
  ]

(* random lanes, with zeros and ties often enough to reach both sides
   of cmp_lt and select *)
let random_lanes n =
  QCheck.make
    ~print:QCheck.Print.(array float)
    QCheck.Gen.(
      array_size (return n)
        (frequency
           [ (1, return 0.0); (1, return 1.0); (6, float_range (-1e6) 1e6) ]))

let operands w op raw =
  Array.init op.arity (fun k -> vec w (fun i -> op.input raw.((k * w) + i)))

let prop_lanewise w op =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%d lanes: %s = scalar round32" w op.name)
    (random_lanes (3 * w))
    (fun raw ->
      let args = operands w op raw in
      let c = Cost.create () and dst = Simd.zero w in
      op.run c dst args;
      let l = Array.map lanes args in
      let want i = op.scalar (Array.map (fun a -> a.(i)) l) in
      Array.for_all Fun.id
        (Array.mapi (fun i x -> same_bits x (want i)) (lanes dst))
      && c.Cost.simd_ops = 1.0)

(* the kernel writes [round_into c t1 t1] and [sub_into c d d t1] *)
let prop_aliased_dst w =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "%d lanes: dst aliasing an operand" w)
    (random_lanes (3 * w))
    (fun raw ->
      List.for_all
        (fun op ->
          let fresh = Simd.zero w in
          op.run (Cost.create ()) fresh (operands w op raw);
          List.for_all
            (fun k ->
              let args = operands w op raw in
              op.run (Cost.create ()) args.(k) args;
              Array.for_all2 same_bits (lanes fresh) (lanes args.(k)))
            (List.init op.arity Fun.id))
        lanewise_ops)

let test_vec_basics w () =
  let v = Simd.zero w in
  Alcotest.(check int) "width" w (Simd.width v);
  Alcotest.(check (array (float 0.0))) "zero" (Array.make w 0.0) (lanes v);
  (* 0.1 is not representable in binary32: lanes hold the rounded value *)
  Simd.splat_into v 0.1;
  Alcotest.(check bool) "splat rounds" true ((lanes v).(w - 1) <> 0.1);
  Alcotest.(check (array (float 0.0)))
    "splat" (Array.make w (r32 0.1)) (lanes v);
  (* a gather reads src.(off + idx.(i)) into lane i: reversed, offset *)
  let src = Array.init (w + 3) (fun i -> float_of_int i +. 0.1) in
  Simd.gather_into v src 3 (Array.init w (fun i -> w - 1 - i));
  Alcotest.(check (array (float 0.0)))
    "gather through the index table"
    (Array.init w (fun i -> r32 src.(3 + w - 1 - i)))
    (lanes v);
  (* a store writes lane i to dst.(off + i) and nothing else *)
  let dst = Array.make (w + 2) (-1.0) in
  Simd.store_into dst 1 v;
  Alcotest.(check (array (float 0.0)))
    "store at an offset"
    (Array.concat [ [| -1.0 |]; lanes v; [| -1.0 |] ])
    dst;
  check_invalid "zero 0" (fun () -> Simd.zero 0);
  check_invalid "gather past src" (fun () ->
      Simd.gather_into v src 4 (Array.init w (fun i -> w - 1 - i)));
  check_invalid "gather with a short index table" (fun () ->
      Simd.gather_into v src 0 (Array.make (w - 1) 0));
  check_invalid "store past dst" (fun () -> Simd.store_into dst 3 v);
  check_invalid "store at -1" (fun () -> Simd.store_into dst (-1) v)

(* a gather rounds each double to the nearest float32, ties to even,
   exactly as [round32] does; doubles already in float32 pass through *)
let test_gather_rounds w () =
  let exact = 1.5 and tie_down = 1.0 +. ldexp 1.0 (-24)
  and tie_up = 1.0 +. (3.0 *. ldexp 1.0 (-24)) and fine = 1.0 +. ldexp 1.0 (-30) in
  let src =
    Array.init w (fun i ->
        match i mod 4 with
        | 0 -> 0.1
        | 1 -> tie_down
        | 2 -> tie_up
        | _ -> if i < 4 then exact else fine)
  in
  let lanes_ = lanes (vec w (fun i -> src.(i))) in
  Array.iteri
    (fun i x ->
      if not (same_bits x (r32 src.(i))) then
        Alcotest.failf "lane %d: %h is not round32 %h" i x src.(i))
    lanes_;
  Alcotest.(check (float 0.0)) "0.1 moves" (r32 0.1) lanes_.(0);
  Alcotest.(check bool) "0.1 is not a float32" true (lanes_.(0) <> 0.1);
  Alcotest.(check (float 0.0)) "tie rounds down to even" 1.0 lanes_.(1);
  Alcotest.(check (float 0.0))
    "tie rounds up to even" (1.0 +. ldexp 1.0 (-22)) lanes_.(2);
  Alcotest.(check (float 0.0)) "a float32 passes" exact lanes_.(3);
  if w = 8 then
    Alcotest.(check (float 0.0)) "2^-30 past 1 vanishes" 1.0 lanes_.(7)

(* the horizontal sum as the hardware does it: halving rounds that add
   adjacent lane pairs; returns the sum and the number of rounds *)
let rec pairwise_tree l =
  if Array.length l = 1 then (l.(0), 0)
  else
    let s, rounds =
      pairwise_tree
        (Array.init (Array.length l / 2) (fun i ->
             r32 (l.(2 * i) +. l.((2 * i) + 1))))
    in
    (s, rounds + 1)

(* [hsum_into] writes only its slot: the rest of [out] keeps its NaNs *)
let hsum_slot c v off len =
  let out = Array.make 3 nan in
  Simd.hsum_into c v off len out 1;
  if not (Float.is_nan out.(0) && Float.is_nan out.(2)) then
    Alcotest.fail "hsum_into wrote outside its slot";
  out.(1)

let prop_hsum w =
  let rounds = if w = 4 then 2 else 3 in
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "%d lanes: hsum_into is the %d-round pairwise tree" w
         rounds)
    (random_lanes w)
    (fun raw ->
      let v = vec w (fun i -> raw.(i)) and c = Cost.create () in
      let s = hsum_slot c v 0 w in
      let want, tree_rounds = pairwise_tree (lanes v) in
      same_bits s want && tree_rounds = rounds
      && c.Cost.simd_ops = float_of_int rounds)

let prop_hsum_part w =
  QCheck.Test.make ~count:100
    ~name:
      (Printf.sprintf "%d lanes: hsum_into over a sub-range is its tree" w)
    (random_lanes w)
    (fun raw ->
      let v = vec w (fun i -> raw.(i)) in
      List.for_all
        (fun len ->
          List.for_all
            (fun off ->
              let c = Cost.create () in
              let s = hsum_slot c v off len in
              let want, rounds = pairwise_tree (Array.sub (lanes v) off len) in
              same_bits s want && c.Cost.simd_ops = float_of_int rounds)
            (List.init (w - len + 1) Fun.id))
        (List.filter (fun len -> len <= w) [ 1; 2; 4; 8 ]))

let prop_narrow w =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%d lanes: narrow_into copies or halves once" w)
    (random_lanes (2 * w))
    (fun raw ->
      let same = vec w (fun i -> raw.(i))
      and wide = vec (2 * w) (fun i -> raw.(i)) in
      let c = Cost.create () and dst = Simd.zero w in
      (* equal widths: a free copy, and a no-op onto itself *)
      Simd.narrow_into c dst same;
      Simd.narrow_into c same same;
      let copied = Array.for_all2 same_bits (lanes dst) (lanes same) in
      let free = c.Cost.simd_ops = 0.0 in
      (* double width: one add of the upper half onto the lower half *)
      Simd.narrow_into c dst wide;
      let l = lanes wide in
      copied && free
      && Array.for_all Fun.id
           (Array.init w (fun i ->
                same_bits (lanes dst).(i) (r32 (l.(i) +. l.(i + w)))))
      && c.Cost.simd_ops = 1.0)

(* Figure 7 of the paper on plain arrays: simd_vshuff picks lanes i, j
   of a then lanes k, l of b, and six of them turn the x, y, z
   registers into per-particle triples.  Returns the 12 floats and the
   number of shuffles. *)
let fig7_shuffles x y z =
  let count = ref 0 in
  let vshuff a b (i, j, k, l) =
    incr count;
    [| a.(i); a.(j); b.(k); b.(l) |]
  in
  let s1 = vshuff x y (0, 2, 0, 2) in (* X1 X3 Y1 Y3 *)
  let s2 = vshuff x z (1, 3, 0, 2) in (* X2 X4 Z1 Z3 *)
  let s3 = vshuff y z (1, 3, 1, 3) in (* Y2 Y4 Z2 Z4 *)
  let p1 = vshuff s1 s2 (0, 2, 2, 0) in (* X1 Y1 Z1 X2 *)
  let p2 = vshuff s3 s1 (0, 2, 1, 3) in (* Y2 Z2 X3 Y3 *)
  let p3 = vshuff s2 s3 (3, 1, 1, 3) in (* Z3 X4 Y4 Z4 *)
  (Array.concat [ p1; p2; p3 ], !count)

(* the kernel's post-treatment: narrow each axis to one 4-lane
   register (free at 4 lanes, one fold each at 8), then transpose *)
let prop_transpose w =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "%d lanes: transpose3x4_into = Fig 7 shuffles" w)
    (random_lanes (3 * w))
    (fun raw ->
      let c = Cost.create () in
      let axis k =
        let n = Simd.zero 4 in
        Simd.narrow_into c n (vec w (fun i -> raw.((k * w) + i)));
        n
      in
      let x = axis 0 and y = axis 1 and z = axis 2 in
      let folds = c.Cost.simd_ops in
      let dst = Array.make 12 nan in
      Simd.transpose3x4_into c x y z dst;
      let want, shuffles = fig7_shuffles (lanes x) (lanes y) (lanes z) in
      Array.for_all2 same_bits want dst
      && folds = (if w = 4 then 0.0 else 3.0)
      && shuffles = 6
      && c.Cost.simd_ops -. folds = float_of_int shuffles)

let test_width_mismatch w () =
  let c = Cost.create () in
  (* a narrower or a wider vector in each position of each op *)
  List.iter
    (fun other ->
      List.iter
        (fun op ->
          let args = Array.init op.arity (fun _ -> Simd.zero w) in
          check_invalid
            (Printf.sprintf "%s dst of %d" op.name other)
            (fun () -> op.run c (Simd.zero other) args);
          for k = 0 to op.arity - 1 do
            let mixed = Array.copy args in
            mixed.(k) <- Simd.zero other;
            check_invalid
              (Printf.sprintf "%s operand %d of %d" op.name k other)
              (fun () -> op.run c (Simd.zero w) mixed)
          done)
        lanewise_ops)
    [ w / 2; 2 * w ];
  check_invalid "narrow_into from triple width" (fun () ->
      Simd.narrow_into c (Simd.zero w) (Simd.zero (3 * w)));
  check_invalid "narrow_into widening" (fun () ->
      Simd.narrow_into c (Simd.zero (2 * w)) (Simd.zero w));
  let out = Array.make 2 0.0 in
  check_invalid "hsum_into of a non-power-of-two width" (fun () ->
      Simd.hsum_into c (Simd.zero (3 * w / 2)) 0 (3 * w / 2) out 0);
  check_invalid "hsum_into of 3 lanes" (fun () ->
      Simd.hsum_into c (Simd.zero w) 0 3 out 0);
  check_invalid "hsum_into past the last lane" (fun () ->
      Simd.hsum_into c (Simd.zero w) (w / 2) w out 0);
  check_invalid "hsum_into past the last slot" (fun () ->
      Simd.hsum_into c (Simd.zero w) 0 w out 2);
  (* 4-lane registers into 11 floats, or 8-lane registers *)
  check_invalid "transpose3x4_into" (fun () ->
      let v = Simd.zero w in
      Simd.transpose3x4_into c v v v (Array.make (if w = 4 then 11 else 12) 0.0));
  check_float "rejected ops charge nothing" 0.0 c.Cost.simd_ops

let simd_cases =
  List.concat_map
    (fun w ->
      let case name f =
        Alcotest.test_case (Printf.sprintf "%d lanes: %s" w name) `Quick (f w)
      in
      [
        case "zero/splat_into/gather_into/store_into" test_vec_basics;
        case "gather_into rounds a double to float32" test_gather_rounds;
      ]
      @ List.map
          (fun p -> QCheck_alcotest.to_alcotest (p w))
          ([ prop_hsum; prop_hsum_part; prop_narrow; prop_transpose;
             prop_aliased_dst ]
          @ List.map (fun op w -> prop_lanewise w op) lanewise_ops)
      @ [ case "mismatched widths raise" test_width_mismatch ])
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Core_group *)

let test_cg_max_compute () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Cost.flops (Core_group.cpe g 1).Cpe.cost 2.9e9;
  check_float "critical path is slowest CPE" 2.0 (Core_group.max_compute_time g)

let test_cg_dma_sums () =
  let g = Core_group.create Config.default in
  Dma.get Config.default (Core_group.cpe g 0).Cpe.cost ~bytes:2048;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  check_float "bus time sums" (2.0 *. 2048.0 /. 30.48e9) (Core_group.dma_time g)

let test_cg_elapsed_combines () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 0).Cpe.cost 1.45e9;
  Dma.get Config.default (Core_group.cpe g 1).Cpe.cost ~bytes:2048;
  Mpe.charge_flops g.Core_group.mpe
    (Config.default.Config.mpe_flops_per_cycle *. 1.45e9);
  check_float "elapsed" (1.0 +. (2048.0 /. 30.48e9) +. 1.0) (Core_group.elapsed g)

let test_cg_reset () =
  let g = Core_group.create Config.default in
  Cost.flops (Core_group.cpe g 5).Cpe.cost 100.0;
  Core_group.reset g;
  check_float "cleared" 0.0 (Core_group.elapsed g)

let test_cg_imbalance () =
  let g = Core_group.create Config.default in
  Core_group.iter_cpes g (fun c -> Cost.flops c.Cpe.cost 100.0);
  check_float "balanced" 1.0 (Core_group.load_imbalance g)

let test_cpe_mesh_position () =
  let c = Cpe.create Config.default 19 in
  Alcotest.(check int) "row" 2 (Cpe.row c);
  Alcotest.(check int) "col" 3 (Cpe.col c)

let test_chip_peak_flops () =
  (* 4 CG x 65 elements x 4 lanes x 2 x 1.45 GHz = 3.016 Tflops *)
  check_float ~eps:1e-3 "3.0 Tflops" 3.016e12
    (Platform.chip_peak_flops Config.default)

(* ------------------------------------------------------------------ *)
(* Platforms *)

let test_platform_ttf_knl () =
  let r = Platforms.ttf_ratio Platforms.sw26010 Platforms.knl in
  Alcotest.(check bool) "~150x KNL" true (r > 140.0 && r < 160.0)

let test_platform_ttf_p100 () =
  let r = Platforms.ttf_ratio Platforms.sw26010 Platforms.p100 in
  Alcotest.(check bool) "~24x P100" true (r > 22.0 && r < 27.0)

let test_platform_ttf_self () =
  check_float "self ratio is 1" 1.0 (Platforms.ttf_ratio Platforms.knl Platforms.knl)

let test_platform_fair_counts () =
  Alcotest.(check int) "KNL fair count" 152 (Platforms.fair_chip_count Platforms.knl);
  Alcotest.(check int) "P100 fair count" 24 (Platforms.fair_chip_count Platforms.p100)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_dma_bigger_never_slower; prop_dma_aggregation_wins ]

let suites =
  [
    ( "swarch.config",
      [
        Alcotest.test_case "default validates" `Quick test_config_default_valid;
        Alcotest.test_case "peak bandwidth" `Quick test_config_peak_bw;
        Alcotest.test_case "rejects bad cpe count" `Quick test_config_rejects_bad;
        Alcotest.test_case "rejects unsorted dma points" `Quick test_config_rejects_unsorted;
      ] );
    ( "swarch.dma",
      [
        Alcotest.test_case "table 2 points exact" `Quick test_dma_table2_points;
        Alcotest.test_case "monotone in size" `Quick test_dma_monotone_regions;
        Alcotest.test_case "plateau beyond table" `Quick test_dma_plateau;
        Alcotest.test_case "latency bound below 8B" `Quick test_dma_small_latency_bound;
        Alcotest.test_case "charges cost" `Quick test_dma_charges_cost;
        Alcotest.test_case "zero bytes free" `Quick test_dma_zero_bytes_free;
        Alcotest.test_case "unaligned penalty" `Quick test_dma_unaligned_penalty;
      ] );
    ( "swarch.ldm",
      [
        Alcotest.test_case "alloc/free bookkeeping" `Quick test_ldm_alloc_free;
        Alcotest.test_case "overflow raises" `Quick test_ldm_overflow;
        Alcotest.test_case "with_alloc releases on raise" `Quick test_ldm_with_alloc_releases_on_raise;
        Alcotest.test_case "CPE has 64 KB" `Quick test_ldm_capacity_is_64k;
      ] );
    ( "swarch.cost",
      [
        Alcotest.test_case "add accumulates" `Quick test_cost_add;
        Alcotest.test_case "cpe compute time" `Quick test_cost_cpe_time;
        Alcotest.test_case "gld latency dominates" `Quick test_cost_gld_latency;
        Alcotest.test_case "mpe time" `Quick test_cost_mpe_time;
        Alcotest.test_case "reset zeroes" `Quick test_cost_reset;
      ] );
    ("swarch.simd", simd_cases);
    ( "swarch.core_group",
      [
        Alcotest.test_case "compute is max over CPEs" `Quick test_cg_max_compute;
        Alcotest.test_case "dma bus time sums" `Quick test_cg_dma_sums;
        Alcotest.test_case "elapsed combines phases" `Quick test_cg_elapsed_combines;
        Alcotest.test_case "reset" `Quick test_cg_reset;
        Alcotest.test_case "imbalance metric" `Quick test_cg_imbalance;
        Alcotest.test_case "elapsed = compute + DMA + MPE" `Quick test_cg_elapsed_parts;
        Alcotest.test_case "cpe mesh position" `Quick test_cpe_mesh_position;
        Alcotest.test_case "chip peak ~3 Tflops" `Quick test_chip_peak_flops;
      ] );
    ( "swarch.platforms",
      [
        Alcotest.test_case "TTF vs KNL ~150" `Quick test_platform_ttf_knl;
        Alcotest.test_case "TTF vs P100 ~24" `Quick test_platform_ttf_p100;
        Alcotest.test_case "TTF self = 1" `Quick test_platform_ttf_self;
        Alcotest.test_case "fair chip counts" `Quick test_platform_fair_counts;
      ] );
    ("swarch.properties", qsuite);
  ]
