(* swpar: the deterministic domain pool.

   Two layers of tests.  The mechanism layer checks the static sharding
   arithmetic and the pool's ordering/exception contracts.  The
   determinism layer is the subsystem's reason to exist: physics, cost
   charges, checkpoint bytes and exported traces must be bit-identical
   at every domain count (7 exercises uneven stripe remainders against
   the 64-CPE mesh). *)

module K = Swgmx.Kernel_common
module V = Swgmx.Variant
module E = Swgmx.Engine

let domain_counts = [ 1; 2; 4; 7 ]

(* every test leaves the process back on the serial path *)
let with_domains d f =
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set 1) f

let bits = Int64.bits_of_float

(* --- static sharding --------------------------------------------------- *)

let qstripes_cover =
  QCheck.Test.make ~name:"stripes: cover [0,n) exactly, in order" ~count:500
    QCheck.(pair (int_range 1 32) (int_range 0 500))
    (fun (shards, n) ->
      let st = Swpar.Pool.stripes ~shards ~n in
      Array.length st = shards
      && fst st.(0) = 0
      && snd st.(shards - 1) = n
      && Array.for_all (fun (lo, hi) -> lo <= hi) st
      && (let ok = ref true in
          for s = 1 to shards - 1 do
            if fst st.(s) <> snd st.(s - 1) then ok := false
          done;
          !ok))

let qstripes_balanced =
  QCheck.Test.make ~name:"stripes: balanced to within one element" ~count:500
    QCheck.(pair (int_range 1 32) (int_range 0 500))
    (fun (shards, n) ->
      let st = Swpar.Pool.stripes ~shards ~n in
      let sizes = Array.map (fun (lo, hi) -> hi - lo) st in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      mx - mn <= 1)

(* --- pool contracts ---------------------------------------------------- *)

let test_map_stripes_order () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let out =
            Swpar.Pool.map_stripes ~n:100 (fun ~shard ~lo ~hi -> (shard, lo, hi))
          in
          Array.iteri
            (fun i (s, _, _) ->
              Alcotest.(check int) "shard order" i s)
            out;
          let total =
            Array.fold_left (fun acc (_, lo, hi) -> acc + (hi - lo)) 0 out
          in
          Alcotest.(check int) "full range" 100 total))
    domain_counts

exception Boom of int

let test_lowest_shard_exception_wins () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          match
            Swpar.Pool.iter_stripes ~n:64 (fun ~shard ~lo:_ ~hi:_ ->
                raise (Boom shard))
          with
          | () -> Alcotest.fail "no exception propagated"
          | exception Boom s -> Alcotest.(check int) "lowest shard wins" 0 s))
    domain_counts

let test_nested_sections_run_inline () =
  with_domains 4 (fun () ->
      let inner_shards =
        Swpar.Pool.map_stripes ~n:16 (fun ~shard:_ ~lo:_ ~hi:_ ->
            Array.length
              (Swpar.Pool.map_stripes ~n:16 (fun ~shard ~lo:_ ~hi:_ -> shard)))
      in
      Array.iter
        (fun n -> Alcotest.(check int) "nested section is inline" 1 n)
        inner_shards)

(* --- determinism: the force kernel ------------------------------------- *)

(* one small water system, shared by the kernel runs below *)
let prep = lazy (Swbench.Common.prepare ~particles:600 ())

let kernel_run () =
  let p = Lazy.force prep in
  let cg = Swarch.Core_group.create (Swbench.Common.cfg ()) in
  let res, _stats =
    Swgmx.Kernel_cpe.run p.Swbench.Common.sys p.Swbench.Common.pairs cg
      (Swgmx.Kernel_cpe.spec_of_variant V.Mark)
  in
  (res, Swarch.Core_group.total_cost cg, Swarch.Core_group.elapsed cg)

let test_kernel_bit_identity () =
  let ref_res, ref_cost, ref_elapsed = with_domains 1 kernel_run in
  List.iter
    (fun d ->
      let res, cost, elapsed = with_domains d kernel_run in
      let ctx = Printf.sprintf "domains=%d" d in
      Alcotest.(check int64)
        (ctx ^ ": e_lj bits") (bits (K.e_lj ref_res)) (bits (K.e_lj res));
      Alcotest.(check int64)
        (ctx ^ ": e_coul bits") (bits (K.e_coul ref_res)) (bits (K.e_coul res));
      Alcotest.(check int)
        (ctx ^ ": pairs") ref_res.K.pairs_in_cutoff res.K.pairs_in_cutoff;
      Alcotest.(check int)
        (ctx ^ ": force length")
        (Array.length ref_res.K.force)
        (Array.length res.K.force);
      Array.iteri
        (fun i f ->
          if bits f <> bits res.K.force.(i) then
            Alcotest.failf "%s: force.(%d) differs: %h vs %h" ctx i f
              res.K.force.(i))
        ref_res.K.force;
      (* the aggregate cost record is all floats and counters; the
         structural compare is exact *)
      Alcotest.(check bool) (ctx ^ ": cost totals") true (ref_cost = cost);
      Alcotest.(check int64)
        (ctx ^ ": elapsed bits") (bits ref_elapsed) (bits elapsed))
    domain_counts

(* --- determinism: a traced, priced step -------------------------------- *)

let traced_step () =
  Swtrace.Trace.enable ();
  Fun.protect ~finally:(fun () -> Swtrace.Trace.disable ())
    (fun () ->
      let m =
        E.measure
          ~cfg:(Swbench.Common.cfg ())
          ~plan:Swstep.Plan.Overlap ~version:E.V_other ~total_atoms:1500
          ~n_cg:1 ()
      in
      let json = Swtrace.Chrome.to_string (Swtrace.Trace.events ()) in
      (m.E.step_time, json))

let test_traced_step_bit_identity () =
  let ref_time, ref_json = with_domains 1 traced_step in
  List.iter
    (fun d ->
      let time, json = with_domains d traced_step in
      Alcotest.(check int64)
        (Printf.sprintf "domains=%d: step time bits" d)
        (bits ref_time) (bits time);
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d: trace JSON identical (%d bytes)" d
           (String.length ref_json))
        true
        (String.equal ref_json json))
    domain_counts

(* --- determinism: checkpoint bytes ------------------------------------- *)

let checkpoint_bytes () =
  let captured = ref [] in
  let _samples, _st, _stats =
    E.simulate_protected ~molecules:20 ~seed:7 ~steps:20 ~sample_every:20
      ~checkpoint_every:10
      ~on_checkpoint:(fun ck ->
        captured := Swio.Checkpoint.to_string ck :: !captured)
      ()
  in
  List.rev !captured

let test_checkpoint_bit_identity () =
  let reference = with_domains 1 checkpoint_bytes in
  Alcotest.(check bool) "captures happened" true (reference <> []);
  List.iter
    (fun d ->
      let got = with_domains d checkpoint_bytes in
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d: checkpoint bytes" d)
        reference got)
    domain_counts

let qsuite = List.map QCheck_alcotest.to_alcotest [ qstripes_cover; qstripes_balanced ]

let test_shard_count_capped () =
  (* one shard per configured domain, never more shards than indices;
     a single shard is the inline whole range *)
  with_domains 4 (fun () ->
      List.iter
        (fun (n, shards) ->
          let out =
            Swpar.Pool.map_stripes ~n (fun ~shard:_ ~lo ~hi -> (lo, hi))
          in
          Alcotest.(check (array (pair int int)))
            (Printf.sprintf "n = %d" n)
            (if shards = 1 then [| (0, n) |]
             else Swpar.Pool.stripes ~shards ~n)
            out)
        [ (0, 1); (1, 1); (2, 2); (3, 3); (100, 4) ])

let test_iter_stripes_each_index_once () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let hits = Array.init 257 (fun _ -> Atomic.make 0) in
          Swpar.Pool.iter_stripes ~n:257 (fun ~shard:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                Atomic.incr hits.(i)
              done);
          Array.iteri
            (fun i a ->
              Alcotest.(check int)
                (Printf.sprintf "%d domains: index %d" d i)
                1 (Atomic.get a))
            hits))
    domain_counts

let test_domains_set_rejects () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Swpar.Domains.set: count must be >= 1") (fun () ->
      Swpar.Domains.set 0);
  Alcotest.(check int) "count unchanged" 1 (Swpar.Domains.get ());
  with_domains 3 (fun () ->
      Alcotest.(check int) "installed" 3 (Swpar.Domains.get ()));
  Alcotest.(check bool) "not inside a section" false
    (Swpar.Domains.in_parallel ())

let suites =
  [
    ("swpar.stripes", qsuite);
    ( "swpar.pool",
      [
        Alcotest.test_case "map_stripes shard order" `Quick
          test_map_stripes_order;
        Alcotest.test_case "lowest shard's exception wins" `Quick
          test_lowest_shard_exception_wins;
        Alcotest.test_case "nested sections run inline" `Quick
          test_nested_sections_run_inline;
        Alcotest.test_case "shard count capped at n" `Quick
          test_shard_count_capped;
        Alcotest.test_case "iter_stripes: each index once" `Quick
          test_iter_stripes_each_index_once;
        Alcotest.test_case "Domains.set rejects zero" `Quick
          test_domains_set_rejects;
      ] );
    ( "swpar.determinism",
      [
        Alcotest.test_case "kernel bit-identity at 1/2/4/7 domains" `Quick
          test_kernel_bit_identity;
        Alcotest.test_case "traced step bit-identity at 1/2/4/7 domains" `Quick
          test_traced_step_bit_identity;
        Alcotest.test_case "checkpoint bytes bit-identity" `Quick
          test_checkpoint_bit_identity;
      ] );
  ]
