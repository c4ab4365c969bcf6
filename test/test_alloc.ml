(* Allocation discipline and flat-state goldens.

   Two layers.  The golden layer pins the physics of the flat Bigarray
   MD state against literal bit patterns captured from the seed
   [float array] implementation: reference nonbonded energies/forces,
   the Mark kernel outcome and checkpoint bytes must reproduce them
   exactly, at --domains 1 and 4 alike — a refactor of the state layout
   must never move a single bit.

   The allocation layer is the runtest gate of the zero-allocation
   refactor: one hot nonbonded step must allocate nothing per
   interaction (measured as a [Gc.minor_words] delta), and its total
   per-step allocation must stay under a pinned budget.  If a boxed
   float or closure sneaks back into the pair loop, the per-step count
   jumps by tens of thousands of words and this suite fails. *)

module Md = Mdcore
module K = Swgmx.Kernel_common
module V = Swgmx.Variant
module E = Swgmx.Engine

let bits = Int64.bits_of_float

(* order-dependent FNV-style fold over the IEEE bits of a buffer *)
let mix acc x = Int64.add (Int64.mul acc 0x100000001b3L) (Int64.logxor acc x)

let checksum_fbuf b =
  let acc = ref 0L in
  for i = 0 to Md.Fbuf.length b - 1 do
    acc := mix !acc (bits (Md.Fbuf.get b i))
  done;
  !acc

let checksum_floats a =
  let acc = ref 0L in
  Array.iter (fun f -> acc := mix !acc (bits f)) a;
  !acc

let with_domains d f =
  Swpar.Domains.set d;
  Fun.protect ~finally:(fun () -> Swpar.Domains.set 1) f

(* the standard water snapshot the reference kernel goldens pin *)
let reference_setup () =
  let st = Md.Water.build ~molecules:200 ~seed:2019 () in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let cl = Md.Cluster.build box st.Md.Md_state.pos n in
  let pairs =
    Md.Pair_list.build box cl ~pos:st.Md.Md_state.pos ~rlist:rcut ()
  in
  (st, cl, pairs, params)

(* --- goldens: the flat state reproduces the seed bits ------------------ *)

let test_reference_nonbonded_goldens () =
  let st, cl, pairs, params = reference_setup () in
  let energy = Md.Energy.create () in
  let inside = Md.Nonbonded.compute st cl pairs params energy in
  Alcotest.(check int64)
    "e_lj bits" 4649261371169192853L
    (bits energy.Md.Energy.lj);
  Alcotest.(check int64)
    "e_coul bits" 4648026074578458787L
    (bits energy.Md.Energy.coulomb_sr);
  Alcotest.(check int) "pairs in cutoff" 68329 inside;
  Alcotest.(check int64)
    "force checksum" (-4290675607119285626L)
    (checksum_fbuf st.Md.Md_state.force)

let test_kernel_goldens_across_domains () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let p = Swbench.Common.prepare ~particles:600 () in
          let cg = Swarch.Core_group.create (Swbench.Common.cfg ()) in
          let res, _ =
            Swgmx.Kernel_cpe.run p.Swbench.Common.sys p.Swbench.Common.pairs cg
              (Swgmx.Kernel_cpe.spec_of_variant V.Mark)
          in
          let ctx = Printf.sprintf "domains=%d" d in
          Alcotest.(check int64)
            (ctx ^ ": e_lj bits") 4649261369885646848L
            (bits (K.e_lj res));
          Alcotest.(check int64)
            (ctx ^ ": e_coul bits") 4648026073180799232L
            (bits (K.e_coul res));
          Alcotest.(check int64)
            (ctx ^ ": force checksum") (-1266019375033049088L)
            (checksum_floats res.K.force)))
    [ 1; 4 ]

let test_checkpoint_goldens_across_domains () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let captured = ref [] in
          let _s, _st, _stats =
            E.simulate_protected ~molecules:20 ~seed:7 ~steps:20 ~sample_every:20
              ~checkpoint_every:10
              ~on_checkpoint:(fun ck ->
                captured := Swio.Checkpoint.to_string ck :: !captured)
              ()
          in
          let ctx = Printf.sprintf "domains=%d" d in
          Alcotest.(check int) (ctx ^ ": checkpoints") 3 (List.length !captured);
          Alcotest.(check string)
            (ctx ^ ": checkpoint bytes digest")
            "36992c191b005b1332ef7c13bed78dfb"
            (Digest.to_hex (Digest.string (String.concat "" (List.rev !captured))))))
    [ 1; 4 ]

(* The double-precision reference trajectory of Fig 13: the shared
   water-box set-up (minimisation, thermalisation, strong-coupling
   equilibration) followed by Workflow steps.  Pins the mdcore step
   sequence itself, which the Engine run above only reaches through the
   optimised kernel. *)
let test_reference_workflow_goldens () =
  let w = Md.Workflow.water_box ~dt:0.001 ~temp:300.0 ~molecules:20 ~seed:7 in
  let st = w.Md.Workflow.state in
  Md.Workflow.equilibrate w ~seed:7 ~steps:10;
  Md.Workflow.run w 20;
  Alcotest.(check int64)
    "total energy bits" (-4577441841999294158L)
    (bits (Md.Workflow.total_energy w));
  Alcotest.(check int64)
    "position checksum" 750884319345961180L
    (checksum_fbuf st.Md.Md_state.pos);
  Alcotest.(check int64)
    "velocity checksum" (-4235708343602642069L)
    (checksum_fbuf st.Md.Md_state.vel)

(* --- the allocation gate ----------------------------------------------- *)

(* Pinned budget for one full nonbonded step (68329 pairs): the hot
   loop allocates nothing, so the whole step may spend at most a small
   constant — today it measures 0 words.  A single boxed float per
   pair would cost ~200k words and trip this immediately. *)
let step_budget_words = 256.0

let alloc_setup = lazy (reference_setup ())

let nonbonded_step_sample ~steps =
  let st, cl, pairs, params = Lazy.force alloc_setup in
  let n = Md.Md_state.n_atoms st in
  let energy = Md.Energy.create () in
  let step () =
    Md.Energy.reset energy;
    Md.Fbuf.fill st.Md.Md_state.force 0 (3 * n) 0.0;
    ignore (Md.Nonbonded.compute st cl pairs params energy)
  in
  Swbench.Alloc.measure ~warmup:2 ~steps step

let test_step_alloc_budget () =
  let s = nonbonded_step_sample ~steps:8 in
  let w = Swbench.Alloc.words s in
  if w > step_budget_words then
    Alcotest.failf "nonbonded step allocates %.1f words (budget %.1f)" w
      step_budget_words

(* property: the per-interaction allocation is zero — the minor-words
   delta per step stays under the constant budget for any number of
   measured steps, i.e. it cannot be hiding a per-pair term *)
let qalloc_per_interaction_zero =
  QCheck.Test.make ~name:"nonbonded: zero words per interaction" ~count:6
    QCheck.(int_range 2 8)
    (fun steps ->
      let s = nonbonded_step_sample ~steps in
      let per_pair = s.Swbench.Alloc.minor_words /. 68329.0 in
      s.Swbench.Alloc.minor_words <= step_budget_words && per_pair < 0.01)

(* The force path on the 3k-atom system of [Swbench.Common.prepare]:
   one Kernel_cpe call, or one CPE pair search, must stay within a
   pinned number of heap words, about 25% above what it measures.
   What remains is per-call state — the per-CPE caches, force copies
   and scratch registers — and the pair list the search returns.  The
   3k system has ~320k vector blocks per call at 4 lanes, so one boxed
   float per block adds over half a megaword and trips the gate.  The
   MPE-only Ori kernel allocates only its 9k-word result force array
   (the gate reads 0.009); one boxed float per cluster pair (79k of
   them) trips its budget. *)
let prepared_on platform =
  lazy
    (let saved = Swbench.Common.cfg () in
     Swbench.Common.set_platform platform;
     Fun.protect
       ~finally:(fun () -> Swbench.Common.set_platform saved)
       (fun () -> (platform, Swbench.Common.prepare ~particles:3000 ())))

let base = prepared_on Swarch.Platform.sw26010
let pro = prepared_on Swarch.Platform.sw26010_pro

let force_path_words system f =
  let platform, p = Lazy.force system in
  let cg = Swarch.Core_group.create platform in
  Swbench.Alloc.words (Swbench.Alloc.measure ~warmup:1 ~steps:2 (fun () -> f p cg))

let kernel_words system variant =
  force_path_words system (fun p cg ->
      ignore
        (Swgmx.Kernel_cpe.run p.Swbench.Common.sys p.Swbench.Common.pairs cg
           (Swgmx.Kernel_cpe.spec_of_variant variant)))

let nsearch_words system =
  force_path_words system (fun p cg ->
      ignore
        (Swgmx.Nsearch_cpe.run p.Swbench.Common.sys cg ~kind:Swgmx.Nsearch_cpe.Two_way
           ~rlist:p.Swbench.Common.rcut))

(* The meter itself: a step that allocates one 10,000-float array
   (10,001 words, straight to the major heap) must read as that, not
   as 0 or as a neighbour's garbage, which is what an unbracketed
   [Gc.quick_stat] read gave. *)
let test_alloc_measure_counts_major () =
  let keep = ref [||] in
  let s =
    Swbench.Alloc.measure ~warmup:1 ~steps:3 (fun () ->
        keep := Array.make 10_000 0.0)
  in
  let w = Swbench.Alloc.words s in
  if w < 10_000.0 || w > 11_000.0 then
    Alcotest.failf "Array.make 10_000 0.0 reads %.0f words per step" w

(* ... on every domain: the same two arrays, one per item of a striped
   walk, read the same at one and at two domains, although at two the
   second array comes from a worker domain (which [Gc.counters] would
   not see). *)
let test_alloc_measure_counts_workers () =
  let keep = Array.make 2 [||] in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let s =
            Swbench.Alloc.measure ~warmup:1 ~steps:3 (fun () ->
                Swpar.Pool.iter_stripes ~n:2 (fun ~shard:_ ~lo ~hi ->
                    for i = lo to hi - 1 do
                      keep.(i) <- Array.make 10_000 0.0
                    done))
          in
          let w = Swbench.Alloc.words s in
          if w < 20_000.0 || w > 21_000.0 then
            Alcotest.failf "two 10k-float arrays at domains=%d read %.0f words" d w))
    [ 1; 2 ]

let gate_case name ~budget_mwords words =
  Alcotest.test_case name `Quick (fun () ->
      let w = words () in
      Printf.printf "%s: %.3f Mwords (budget %.2f)\n" name (w /. 1e6) budget_mwords;
      if w > budget_mwords *. 1e6 then
        Alcotest.failf "%s allocates %.2f Mwords (budget %.2f)" name (w /. 1e6)
          budget_mwords)

let force_path_gates =
  [
    gate_case "Mark kernel, 3k atoms, 4 lanes" ~budget_mwords:2.25 (fun () ->
        kernel_words base V.Mark);
    gate_case "Mark kernel, 3k atoms, 8 lanes" ~budget_mwords:5.75 (fun () ->
        kernel_words pro V.Mark);
    gate_case "Vec kernel, 3k atoms, 4 lanes" ~budget_mwords:2.35 (fun () ->
        kernel_words base V.Vec);
    gate_case "Vec kernel, 3k atoms, 8 lanes" ~budget_mwords:5.8 (fun () ->
        kernel_words pro V.Vec);
    gate_case "Cache kernel, 3k atoms, 4 lanes" ~budget_mwords:2.25 (fun () ->
        kernel_words base V.Cache);
    gate_case "CPE pair search, 3k atoms, 4 lanes" ~budget_mwords:5.9 (fun () ->
        nsearch_words base);
    gate_case "Ori kernel, 3k atoms" ~budget_mwords:0.05 (fun () ->
        force_path_words base (fun p cg ->
            ignore
              (Swgmx.Kernel_ori.run p.Swbench.Common.sys p.Swbench.Common.pairs cg)));
  ]

let suites =
  [
    ( "alloc.goldens",
      [
        Alcotest.test_case "reference nonbonded seed bits" `Quick
          test_reference_nonbonded_goldens;
        Alcotest.test_case "Mark kernel seed bits at domains 1/4" `Quick
          test_kernel_goldens_across_domains;
        Alcotest.test_case "checkpoint bytes digest at domains 1/4" `Quick
          test_checkpoint_goldens_across_domains;
        Alcotest.test_case "reference Workflow trajectory bits" `Quick
          test_reference_workflow_goldens;
      ] );
    ( "alloc.gate",
      Alcotest.test_case "nonbonded step under pinned budget" `Quick
        test_step_alloc_budget
      :: Alcotest.test_case "meter reads a 10k-float array per step" `Quick
           test_alloc_measure_counts_major
      :: Alcotest.test_case "meter counts worker-domain allocation" `Quick
           test_alloc_measure_counts_workers
      :: List.map QCheck_alcotest.to_alcotest [ qalloc_per_interaction_zero ]
      @ force_path_gates );
  ]
