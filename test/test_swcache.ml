(* Unit and property tests for the software cache strategies. *)

open Swcache
module Config = Swarch.Config
module Cost = Swarch.Cost
module Ldm = Swarch.Ldm

let cfg = Config.default
(* tolerance class: physical-drift — cache cost arithmetic, 1e-9 *)
let check_float msg a b =
  try Swverify.Tol.check ~what:msg (Swverify.Tol.drift 1e-9) a b
  with Failure m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_ratios () =
  let s = Stats.create () in
  s.Stats.hits <- 9;
  s.Stats.misses <- 1;
  check_float "miss ratio" 0.1 (Stats.miss_ratio s);
  check_float "hit ratio" 0.9 (Stats.hit_ratio s);
  Alcotest.(check int) "accesses" 10 (Stats.accesses s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "no accesses" 0.0 (Stats.miss_ratio s)

(* ------------------------------------------------------------------ *)
(* Bitmap *)

let test_bitmap_mark_query () =
  let b = Bitmap.create 200 in
  Bitmap.mark b 0;
  Bitmap.mark b 63;
  Bitmap.mark b 64;
  Bitmap.mark b 199;
  Alcotest.(check bool) "bit 0" true (Bitmap.is_marked b 0);
  Alcotest.(check bool) "bit 1" false (Bitmap.is_marked b 1);
  Alcotest.(check bool) "word boundary 63" true (Bitmap.is_marked b 63);
  Alcotest.(check bool) "word boundary 64" true (Bitmap.is_marked b 64);
  Alcotest.(check bool) "last" true (Bitmap.is_marked b 199);
  Alcotest.(check int) "count" 4 (Bitmap.count b)

let test_bitmap_clear () =
  let b = Bitmap.create 100 in
  for i = 0 to 99 do Bitmap.mark b i done;
  Alcotest.(check int) "all set" 100 (Bitmap.count b);
  Bitmap.clear b;
  Alcotest.(check int) "cleared" 0 (Bitmap.count b)

let test_bitmap_iter_ascending () =
  let b = Bitmap.create 50 in
  List.iter (Bitmap.mark b) [ 42; 3; 17 ];
  let seen = ref [] in
  Bitmap.iter_marked b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ascending order" [ 3; 17; 42 ] (List.rev !seen)

let test_bitmap_bounds () =
  let b = Bitmap.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitmap: index out of range")
    (fun () -> Bitmap.mark b 10)

let test_bitmap_paper_density () =
  (* Figure 5: one native word records >= 63 lines, i.e. >= 63*8*4 = 2016
     particles with 8 packages of 4 particles per line. *)
  let particles_per_word = Bitmap.bits_per_word * 8 * 4 in
  Alcotest.(check bool) "a word covers >2000 particles" true (particles_per_word >= 2016)

let prop_bitmap_mark_idempotent =
  QCheck.Test.make ~name:"bitmap: marking twice = marking once" ~count:200
    QCheck.(pair (int_range 1 500) (list_of_size (QCheck.Gen.int_range 0 50) (int_range 0 499)))
    (fun (n, ixs) ->
      let n = max n 500 in
      let b1 = Bitmap.create n and b2 = Bitmap.create n in
      List.iter (fun i -> Bitmap.mark b1 i) ixs;
      List.iter (fun i -> Bitmap.mark b2 i; Bitmap.mark b2 i) ixs;
      Bitmap.count b1 = Bitmap.count b2
      && List.for_all (fun i -> Bitmap.is_marked b1 i = Bitmap.is_marked b2 i) ixs)

let prop_bitmap_count_matches_iter =
  QCheck.Test.make ~name:"bitmap: count = length of iter_marked" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (int_range 0 299))
    (fun ixs ->
      let b = Bitmap.create 300 in
      List.iter (Bitmap.mark b) ixs;
      let n = ref 0 in
      Bitmap.iter_marked b (fun _ -> incr n);
      !n = Bitmap.count b)

(* ------------------------------------------------------------------ *)
(* Read_cache *)

let mk_backing n elt_floats =
  Array.init (n * elt_floats) (fun i -> float_of_int i *. 0.5)

let test_rc_returns_backing_values () =
  let backing = mk_backing 256 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  for i = 0 to 255 do
    for j = 0 to 3 do
      check_float "value through cache" backing.((i * 4) + j) (Read_cache.get rc i j)
    done
  done

let test_rc_sequential_hits () =
  (* Sequential access over one line: 1 miss then 7 hits per line. *)
  let backing = mk_backing 128 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  for i = 0 to 127 do ignore (Read_cache.touch rc i) done;
  let s = Read_cache.stats rc in
  Alcotest.(check int) "16 misses" 16 s.Stats.misses;
  Alcotest.(check int) "112 hits" 112 s.Stats.hits

let test_rc_repeated_access_hits () =
  let backing = mk_backing 64 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  ignore (Read_cache.touch rc 5);
  let before = (Read_cache.stats rc).Stats.misses in
  for _ = 1 to 100 do ignore (Read_cache.touch rc 5) done;
  Alcotest.(check int) "no further misses" before (Read_cache.stats rc).Stats.misses

let test_rc_thrashing_conflict () =
  (* Two elements whose memory lines map to the same cache line must
     displace each other in a direct-mapped cache. *)
  let backing = mk_backing 512 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  (* element 0 -> mem line 0 -> cache line 0; element 1024/8=... use i=0 and i=8*16=128 *)
  for _ = 1 to 10 do
    ignore (Read_cache.touch rc 0);
    ignore (Read_cache.touch rc 128)
  done;
  Alcotest.(check int) "all misses" 20 (Read_cache.stats rc).Stats.misses

let test_rc_miss_charges_dma () =
  let backing = mk_backing 64 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  ignore (Read_cache.touch rc 0);
  Alcotest.(check int) "one transfer" 1 (Cost.transactions cost);
  check_float "line bytes" (float_of_int (8 * 4 * 4)) cost.Cost.dma_bytes

let test_rc_ldm_accounting () =
  let ldm = Ldm.create ~capacity:65536 in
  let backing = mk_backing 64 4 in
  let cost = Cost.create () in
  let rc = Read_cache.create cfg cost ~ldm ~ways:1 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  let expect = Read_cache.footprint_bytes ~ways:1 ~elt_floats:4 ~line_elts:8 ~n_lines:16 in
  Alcotest.(check int) "allocated" expect (Ldm.used ldm);
  Read_cache.release rc;
  Alcotest.(check int) "released" 0 (Ldm.used ldm)

let test_rc_too_big_for_ldm () =
  let ldm = Ldm.create ~capacity:65536 in
  let backing = mk_backing 16384 4 in
  let cost = Cost.create () in
  Alcotest.(check bool) "raises Out_of_ldm" true
    (try
       ignore (Read_cache.create cfg cost ~ldm ~ways:1 ~backing ~elt_floats:4 ~line_elts:64 ~n_lines:64 ());
       false
     with Ldm.Out_of_ldm _ -> true)

let test_rc_rejects_non_pow2 () =
  let backing = mk_backing 64 4 in
  let cost = Cost.create () in
  Alcotest.(check bool) "non-pow2 line" true
    (try
       ignore (Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:4 ~line_elts:7 ~n_lines:16 ());
       false
     with Invalid_argument _ -> true)

let prop_rc_transparent =
  QCheck.Test.make ~name:"read cache: any access sequence reads backing values" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 255))
    (fun ixs ->
      let backing = mk_backing 256 2 in
      let cost = Cost.create () in
      let rc = Read_cache.create cfg cost ~ways:1 ~backing ~elt_floats:2 ~line_elts:4 ~n_lines:8 () in
      List.for_all
        (fun i -> Read_cache.get rc i 0 = backing.(i * 2) && Read_cache.get rc i 1 = backing.((i * 2) + 1))
        ixs)

(* The same cache with two ways (Section 3.5) *)

let test_ac_returns_backing_values () =
  let backing = mk_backing 256 4 in
  let cost = Cost.create () in
  let ac = Read_cache.create cfg cost ~ways:2 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  for i = 0 to 255 do
    check_float "value" backing.(i * 4) (Read_cache.get ac i 0)
  done

let test_ac_fixes_thrashing () =
  (* The alternating pattern that thrashes the direct-mapped cache
     (Section 3.5) hits in a two-way cache after the first round. *)
  let backing = mk_backing 512 4 in
  let cost = Cost.create () in
  let ac = Read_cache.create cfg cost ~ways:2 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:32 () in
  for _ = 1 to 10 do
    ignore (Read_cache.touch ac 0);
    ignore (Read_cache.touch ac 128)
  done;
  Alcotest.(check int) "only 2 cold misses" 2 (Read_cache.stats ac).Stats.misses

let test_ac_three_way_conflict_still_misses () =
  let backing = mk_backing 3072 4 in
  let cost = Cost.create () in
  let ac = Read_cache.create cfg cost ~ways:2 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  (* three streams mapping to set 0: elements 0, 512, 1024 (mem lines 0, 64, 128) *)
  for _ = 1 to 5 do
    ignore (Read_cache.touch ac 0);
    ignore (Read_cache.touch ac 512);
    ignore (Read_cache.touch ac 1024)
  done;
  Alcotest.(check bool) "lru keeps missing" true
    ((Read_cache.stats ac).Stats.misses > 10)

let test_ac_lru_victim () =
  (* elements 0, 64 and 128 share set 0 of 8 two-way sets: after 0, 64
     and a re-touch of 0, way 1 (holding 64) is least recently used, so
     128 evicts 64 and 0 still hits *)
  let backing = mk_backing 256 4 in
  let cost = Cost.create () in
  let ac = Read_cache.create cfg cost ~ways:2 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  List.iter (fun i -> ignore (Read_cache.touch ac i)) [ 0; 64; 0; 128; 0 ];
  let s = Read_cache.stats ac in
  Alcotest.(check (pair int int)) "hits, misses" (2, 3) (s.Stats.hits, s.Stats.misses);
  Alcotest.(check int) "one eviction" 1 s.Stats.evictions;
  ignore (Read_cache.touch ac 64);
  Alcotest.(check int) "64 was the victim" 4 (Read_cache.stats ac).Stats.misses

let test_rc_tag_ops_per_way () =
  (* Fig 3's address split is 4 integer ops; the second way's tag
     compare is one more *)
  let backing = mk_backing 64 4 in
  List.iter
    (fun (ways, per_access) ->
      let cost = Cost.create () in
      let rc = Read_cache.create cfg cost ~ways ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
      for i = 0 to 9 do ignore (Read_cache.touch rc i) done;
      check_float (Printf.sprintf "%d-way int ops" ways) (10.0 *. per_access) cost.Cost.int_ops)
    [ (1, 4.0); (2, 5.0) ]

let test_ac_ldm_footprint () =
  (* same lines and tags as one way, plus one LRU byte per set *)
  let ldm = Ldm.create ~capacity:65536 in
  let backing = mk_backing 64 4 in
  let rc = Read_cache.create cfg (Cost.create ()) ~ldm ~ways:2 ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 () in
  Alcotest.(check int) "allocated"
    (Read_cache.footprint_bytes ~ways:1 ~elt_floats:4 ~line_elts:8 ~n_lines:16 + 8)
    (Ldm.used ldm);
  Read_cache.release rc;
  Alcotest.(check int) "released" 0 (Ldm.used ldm)

let test_rc_rejects_other_ways () =
  let backing = mk_backing 64 4 in
  List.iter
    (fun ways ->
      Alcotest.(check bool) (Printf.sprintf "%d ways rejected" ways) true
        (try
           ignore (Read_cache.create cfg (Cost.create ()) ~ways ~backing ~elt_floats:4 ~line_elts:8 ~n_lines:16 ());
           false
         with Invalid_argument _ -> true))
    [ 0; 3; 4; -1 ]

let prop_ac_transparent =
  QCheck.Test.make ~name:"two-way read cache: any access sequence reads backing values" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 255))
    (fun ixs ->
      let backing = mk_backing 256 2 in
      let cost = Cost.create () in
      let ac = Read_cache.create cfg cost ~ways:2 ~backing ~elt_floats:2 ~line_elts:4 ~n_lines:8 () in
      List.for_all (fun i -> Read_cache.get ac i 0 = backing.(i * 2)) ixs)

let prop_ac_no_worse_than_direct =
  QCheck.Test.make ~name:"read cache: two ways never more misses than one of same size"
    ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_range 0 511))
    (fun ixs ->
      let backing = mk_backing 512 2 in
      let c1 = Cost.create () and c2 = Cost.create () in
      (* same capacity: 16 direct lines vs 8 two-way sets *)
      let rc = Read_cache.create cfg c1 ~ways:1 ~backing ~elt_floats:2 ~line_elts:4 ~n_lines:16 () in
      let ac = Read_cache.create cfg c2 ~ways:2 ~backing ~elt_floats:2 ~line_elts:4 ~n_lines:16 () in
      List.iter (fun i -> ignore (Read_cache.touch rc i); ignore (Read_cache.touch ac i)) ixs;
      (* not a theorem for adversarial traces (LRU anomalies exist);
         treat as a regression net with slack *)
      let da = (Read_cache.stats ac).Stats.misses
      and dd = (Read_cache.stats rc).Stats.misses in
      da <= dd + (dd / 4) + 12)

(* ------------------------------------------------------------------ *)
(* Write_cache *)

let test_wc_accumulates_into_copy () =
  let copy = Array.make (64 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:false ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  Write_cache.accumulate3 wc 10 1.0 2.0 3.0;
  Write_cache.accumulate3 wc 10 1.0 2.0 3.0;
  Write_cache.flush wc;
  check_float "fx" 2.0 copy.(30);
  check_float "fy" 4.0 copy.(31);
  check_float "fz" 6.0 copy.(32)

let test_wc_deferred_updates_are_deferred () =
  (* Repeated updates to one element must not touch main memory until
     displacement or flush. *)
  let copy = Array.make (64 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:true ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  for _ = 1 to 1000 do Write_cache.accumulate3 wc 5 0.5 0.5 0.5 done;
  Alcotest.(check int) "no DMA during accumulation" 0 (Cost.transactions cost);
  check_float "still zero in memory" 0.0 copy.(15);
  Write_cache.flush wc;
  check_float "flushed" 500.0 copy.(15);
  Alcotest.(check int) "one writeback" 1 (Write_cache.stats wc).Stats.writebacks

let test_wc_eviction_roundtrip () =
  (* Conflicting lines must write back and later refetch, preserving sums. *)
  let copy = Array.make (256 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:true ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  (* elements 0 and 64 share cache line 0 (mem lines 0 and 16). *)
  for _ = 1 to 3 do
    Write_cache.accumulate3 wc 0 1.0 0.0 0.0;
    Write_cache.accumulate3 wc 64 1.0 0.0 0.0
  done;
  Write_cache.flush wc;
  check_float "element 0 sum" 3.0 copy.(0);
  check_float "element 64 sum" 3.0 copy.(64 * 3)

let test_wc_marks_skip_init () =
  (* With marks, a cold line is initialized locally: no DMA fetch. *)
  let copy = Array.make (64 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:true ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  Write_cache.accumulate3 wc 0 1.0 1.0 1.0;
  Alcotest.(check int) "cold fill costs nothing" 0 (Cost.transactions cost)

let test_wc_no_marks_always_fetch () =
  let copy = Array.make (64 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:false ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  Write_cache.accumulate3 wc 0 1.0 1.0 1.0;
  Alcotest.(check int) "cold fill fetches" 1 (Cost.transactions cost)

let test_wc_mark_records_written_lines () =
  let copy = Array.make (64 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:true ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  Write_cache.accumulate3 wc 0 1.0 0.0 0.0;   (* mem line 0 *)
  Write_cache.accumulate3 wc 17 1.0 0.0 0.0;  (* mem line 4 *)
  Write_cache.flush wc;
  match Write_cache.marks wc with
  | None -> Alcotest.fail "marks expected"
  | Some m ->
      Alcotest.(check bool) "line 0 marked" true (Bitmap.is_marked m 0);
      Alcotest.(check bool) "line 4 marked" true (Bitmap.is_marked m 4);
      Alcotest.(check bool) "line 1 untouched" false (Bitmap.is_marked m 1);
      Alcotest.(check int) "exactly two lines" 2 (Bitmap.count m)

let test_wc_marked_refetch_accumulates () =
  (* A line that was written back and comes back must refetch, so the
     second round adds to the first. *)
  let copy = Array.make (256 * 3) 0.0 in
  let cost = Cost.create () in
  let wc = Write_cache.create cfg cost ~with_marks:true ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
  Write_cache.accumulate3 wc 0 1.0 0.0 0.0;
  Write_cache.accumulate3 wc 64 1.0 0.0 0.0;  (* displaces line for elt 0 *)
  Write_cache.accumulate3 wc 0 1.0 0.0 0.0;   (* must refetch elt 0's line *)
  Write_cache.flush wc;
  check_float "accumulated across eviction" 2.0 copy.(0)

let prop_wc_sum_preserved =
  (* The fundamental invariant of deferred update: after flush, the
     copy holds exactly the sum of all accumulated deltas, for any
     access pattern (including pathological conflict patterns). *)
  QCheck.Test.make ~name:"write cache: flush preserves sums under any pattern" ~count:100
    QCheck.(pair bool (list_of_size (QCheck.Gen.int_range 1 300)
      (pair (int_range 0 127) (float_range (-10.0) 10.0))))
    (fun (with_marks, updates) ->
      let copy = Array.make (128 * 3) 0.0 in
      let expect = Array.make 128 0.0 in
      let cost = Cost.create () in
      let wc = Write_cache.create cfg cost ~with_marks ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
      List.iter
        (fun (i, d) ->
          expect.(i) <- expect.(i) +. d;
          Write_cache.accumulate wc i 0 d)
        updates;
      Write_cache.flush wc;
      let ok = ref true in
      Array.iteri
        (fun i e -> if Float.abs (copy.(i * 3) -. e) > 1e-9 then ok := false)
        expect;
      !ok)

let prop_wc_marks_never_more_dma =
  QCheck.Test.make ~name:"write cache: marks never cost more DMA than plain" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 127))
    (fun ixs ->
      let run with_marks =
        let copy = Array.make (128 * 3) 0.0 in
        let cost = Cost.create () in
        let wc = Write_cache.create cfg cost ~with_marks ~copy ~elt_floats:3 ~line_elts:4 ~n_lines:4 () in
          List.iter (fun i -> Write_cache.accumulate3 wc i 1.0 1.0 1.0) ixs;
        Write_cache.flush wc;
        (Cost.transactions cost)
      in
      run true <= run false)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bitmap_mark_idempotent; prop_bitmap_count_matches_iter;
      prop_rc_transparent; prop_ac_transparent; prop_ac_no_worse_than_direct;
      prop_wc_sum_preserved; prop_wc_marks_never_more_dma ]

let suites =
  [
    ( "swcache.stats",
      [
        Alcotest.test_case "ratios" `Quick test_stats_ratios;
        Alcotest.test_case "empty" `Quick test_stats_empty;
      ] );
    ( "swcache.bitmap",
      [
        Alcotest.test_case "mark/query across words" `Quick test_bitmap_mark_query;
        Alcotest.test_case "clear" `Quick test_bitmap_clear;
        Alcotest.test_case "iter ascending" `Quick test_bitmap_iter_ascending;
        Alcotest.test_case "bounds checked" `Quick test_bitmap_bounds;
        Alcotest.test_case "Fig 5 density" `Quick test_bitmap_paper_density;
      ] );
    ( "swcache.read_cache",
      [
        Alcotest.test_case "transparent reads" `Quick test_rc_returns_backing_values;
        Alcotest.test_case "sequential locality" `Quick test_rc_sequential_hits;
        Alcotest.test_case "repeated access hits" `Quick test_rc_repeated_access_hits;
        Alcotest.test_case "direct-mapped conflicts thrash" `Quick test_rc_thrashing_conflict;
        Alcotest.test_case "miss charges one line DMA" `Quick test_rc_miss_charges_dma;
        Alcotest.test_case "LDM accounting" `Quick test_rc_ldm_accounting;
        Alcotest.test_case "oversized cache rejected by LDM" `Quick test_rc_too_big_for_ldm;
        Alcotest.test_case "non-power-of-two rejected" `Quick test_rc_rejects_non_pow2;
        Alcotest.test_case "ways other than 1 and 2 rejected" `Quick test_rc_rejects_other_ways;
        Alcotest.test_case "tag math: 4 int ops, 5 with two ways" `Quick test_rc_tag_ops_per_way;
        Alcotest.test_case "two-way: transparent reads" `Quick test_ac_returns_backing_values;
        Alcotest.test_case "two-way fixes Fig 3 thrashing" `Quick test_ac_fixes_thrashing;
        Alcotest.test_case "two-way: 3-way conflict still misses" `Quick test_ac_three_way_conflict_still_misses;
        Alcotest.test_case "two-way: LRU picks the victim" `Quick test_ac_lru_victim;
        Alcotest.test_case "two-way: LDM footprint adds LRU bytes" `Quick test_ac_ldm_footprint;
      ] );
    ( "swcache.write_cache",
      [
        Alcotest.test_case "accumulate + flush" `Quick test_wc_accumulates_into_copy;
        Alcotest.test_case "updates are deferred" `Quick test_wc_deferred_updates_are_deferred;
        Alcotest.test_case "eviction round-trips" `Quick test_wc_eviction_roundtrip;
        Alcotest.test_case "marks skip cold fetches" `Quick test_wc_marks_skip_init;
        Alcotest.test_case "plain mode always fetches" `Quick test_wc_no_marks_always_fetch;
        Alcotest.test_case "marks record written lines" `Quick test_wc_mark_records_written_lines;
        Alcotest.test_case "marked refetch accumulates" `Quick test_wc_marked_refetch_accumulates;
      ] );
    ("swcache.properties", qsuite);
  ]
