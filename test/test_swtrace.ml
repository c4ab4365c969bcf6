(* Tests for the swtrace tracing & metrics subsystem. *)

module T = Swtrace.Trace
module Track = Swtrace.Track
module Event = Swtrace.Event
module Json = Swtrace.Json

let cfg = Swarch.Config.default

(* Every test that records must start from a clean recorder and leave
   it off, or state leaks across the suite. *)
let with_trace f =
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable ()) f

(* ------------------------------------------------------------------ *)
(* Span nesting *)

let test_span_nesting () =
  with_trace (fun () ->
      T.push ~cat:"outer" Track.Mpe "outer";
      T.advance Track.Mpe 1.0;
      T.push ~cat:"inner" Track.Mpe "inner";
      Alcotest.(check int) "two open spans" 2 (T.depth Track.Mpe);
      T.advance Track.Mpe 2.0;
      T.pop Track.Mpe;
      T.advance Track.Mpe 1.0;
      T.pop Track.Mpe;
      Alcotest.(check int) "all spans closed" 0 (T.depth Track.Mpe);
      let spans =
        List.filter (fun e -> e.Event.kind = Event.Span) (T.events ())
      in
      let find name = List.find (fun e -> e.Event.name = name) spans in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check (float 1e-12)) "inner start" 1.0 inner.Event.t;
      Alcotest.(check (float 1e-12)) "inner duration" 2.0 inner.Event.dur;
      Alcotest.(check (float 1e-12)) "outer start" 0.0 outer.Event.t;
      Alcotest.(check (float 1e-12)) "outer duration" 4.0 outer.Event.dur;
      (* nesting: inner lies strictly within outer *)
      Alcotest.(check bool) "inner within outer" true
        (inner.Event.t >= outer.Event.t
        && Event.end_time inner <= Event.end_time outer))

let test_unmatched_pop_ignored () =
  with_trace (fun () ->
      T.pop Track.Mpe;
      Alcotest.(check int) "no events" 0 (T.event_count ()))

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_accumulation () =
  with_trace (fun () ->
      let cost = Swarch.Cost.create () in
      Swarch.Cost.gld cost 1;
      Swarch.Cost.gld cost 2;
      Swarch.Cost.gld cost 3;
      let samples =
        List.filter_map
          (fun e ->
            if e.Event.kind = Event.Counter && e.Event.name = "gld" then
              Some e.Event.value
            else None)
          (T.events ())
      in
      (* each charge samples the running total: 1, 1+2, 1+2+3 *)
      Alcotest.(check (list (float 1e-12))) "cumulative samples"
        [ 1.0; 3.0; 6.0 ] samples)

(* ------------------------------------------------------------------ *)
(* JSON export parse-back *)

let test_json_roundtrip () =
  (* CPE lanes exist once a core group has set the mesh geometry; do
     not rely on an earlier suite having built one *)
  ignore (Swarch.Core_group.create cfg);
  with_trace (fun () ->
      T.span ~cat:"kernel" ~args:[ ("flops", 12.5) ] Track.Mpe "k" ~t:1e-3
        ~dur:2e-3;
      T.counter Track.(Cpe 7) "ldm" 4096.0;
      let doc =
        match Json.of_string (Swtrace.Chrome.to_string (T.events ())) with
        | Ok j -> j
        | Error msg -> Alcotest.failf "exported trace does not parse: %s" msg
      in
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "missing traceEvents array"
      in
      let str ev key =
        match Json.member key ev with Some (Json.Str s) -> Some s | _ -> None
      in
      let num ev key =
        match Json.member key ev with
        | Some (Json.Num n) -> n
        | _ -> Alcotest.failf "missing numeric field %s" key
      in
      let span =
        List.find (fun ev -> str ev "name" = Some "k") events
      in
      Alcotest.(check (option string)) "complete event" (Some "X")
        (str span "ph");
      (* microseconds of simulated time *)
      Alcotest.(check (float 1e-9)) "ts in us" 1000.0 (num span "ts");
      Alcotest.(check (float 1e-9)) "dur in us" 2000.0 (num span "dur");
      (match Json.member "args" span with
      | Some args ->
          Alcotest.(check (float 1e-12)) "args survive" 12.5 (num args "flops")
      | None -> Alcotest.fail "span lost its args");
      let counter =
        List.find (fun ev -> str ev "name" = Some "ldm") events
      in
      Alcotest.(check (option string)) "counter event" (Some "C")
        (str counter "ph");
      Alcotest.(check (float 1e-12)) "counter tid" 8.0 (num counter "tid"))

let test_json_parser_rejects_garbage () =
  (match Json.of_string "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "truncated JSON accepted"
  | Error _ -> ());
  match Json.of_string "" with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Disabled mode *)

let test_disabled_no_output () =
  with_trace (fun () -> ());
  (* recorder is now off, with empty rings from the enable above *)
  T.clear ();
  T.span Track.Mpe "s" ~t:0.0 ~dur:1.0;
  T.span_here Track.Mpe "sh" ~dur:1.0;
  T.instant Track.Mpe "i";
  T.counter Track.Mpe "c" 1.0;
  T.dma_transfer ~bytes:256 ~time:1e-8;
  T.push Track.Mpe "p";
  T.pop Track.Mpe;
  Alcotest.(check int) "nothing recorded" 0 (T.event_count ());
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (T.now Track.Mpe)

let test_disabled_zero_allocation () =
  T.disable ();
  (* warm up so any one-time allocation is done *)
  T.span_here Track.Mpe "noop" ~dur:1e-9;
  T.counter Track.Mpe "c" 0.0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.span_here Track.Mpe "noop" ~dur:1e-9;
    T.instant Track.Mpe "i";
    T.counter Track.Mpe "c" 0.0;
    T.dma_transfer ~bytes:64 ~time:1e-9;
    T.push Track.Mpe "p";
    T.pop Track.Mpe
  done;
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (%.0f words)" allocated)
    true (allocated <= 0.0)

(* ------------------------------------------------------------------ *)
(* DMA histogram *)

let test_dma_histogram_bucketing () =
  with_trace (fun () ->
      let emit bytes = T.dma_transfer ~bytes ~time:1e-8 in
      emit 8;
      emit 128;
      (* boundary: 128 belongs to the (64, 128] bucket *)
      emit 129;
      emit 300;
      emit 300;
      emit 5000;
      (* a non-dma instant must not pollute the histogram *)
      T.instant ~cat:"phase-detail" Track.Mpe "reduction";
      let buckets = Swtrace.Analysis.dma_histogram (T.events ()) in
      let total = List.fold_left (fun a b -> a + b.Swtrace.Analysis.transfers) 0 buckets in
      Alcotest.(check int) "all transfers bucketed" 6 total;
      let find lo =
        List.find (fun b -> b.Swtrace.Analysis.lo = lo) buckets
      in
      Alcotest.(check int) "128 lands in (64,128]" 1 (find 65).Swtrace.Analysis.transfers;
      Alcotest.(check int) "129 lands in (128,256]" 1 (find 129).Swtrace.Analysis.transfers;
      Alcotest.(check int) "300s land in (256,512]" 2 (find 257).Swtrace.Analysis.transfers;
      Alcotest.(check int) "oversize lands in open bucket" 1
        (find 4097).Swtrace.Analysis.transfers;
      Alcotest.(check (float 1e-6)) "bucket bytes summed" 600.0
        (find 257).Swtrace.Analysis.bytes)

let test_dma_histogram_matches_bandwidth_curve () =
  with_trace (fun () ->
      (* charge one real transfer through the simulator and check the
         histogram reproduces the Table 2 bandwidth point *)
      let cost = Swarch.Cost.create () in
      Swarch.Dma.get cfg cost ~bytes:512;
      match Swtrace.Analysis.dma_histogram (T.events ()) with
      | [ b ] ->
          Alcotest.(check int) "one transfer" 1 b.Swtrace.Analysis.transfers;
          let expected = Swarch.Dma.bandwidth cfg 512 in
          let got = Swtrace.Analysis.bucket_bw b in
          Alcotest.(check (float 1e-3)) "achieved = modelled bandwidth" 1.0
            (got /. expected)
      | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs))

(* ------------------------------------------------------------------ *)
(* Observer effect: tracing must not change simulated results *)

let test_tracing_does_not_change_measurement () =
  let run () =
    Swgmx.Engine.measure ~version:Swgmx.Engine.V_other ~total_atoms:6000
      ~n_cg:4 ()
  in
  let plain = run () in
  let traced = with_trace (fun () -> run ()) in
  Alcotest.(check bool) "traced events exist" true (T.event_count () > 0);
  Alcotest.(check bool) "bit-identical step time" true
    (plain.Swgmx.Engine.step_time = traced.Swgmx.Engine.step_time);
  Alcotest.(check bool) "bit-identical breakdown" true
    (Swgmx.Engine.rows plain = Swgmx.Engine.rows traced)

let test_tracing_does_not_change_kernel_result () =
  let run () =
    let st = Mdcore.Water.build ~molecules:60 ~seed:5 () in
    let n = Mdcore.Md_state.n_atoms st in
    let box = st.Mdcore.Md_state.box in
    let rcut = Float.min 0.9 (0.45 *. Mdcore.Box.min_edge box) in
    let params =
      { Mdcore.Nonbonded.rcut; elec = Mdcore.Nonbonded.Reaction_field }
    in
    let cl = Mdcore.Cluster.build box st.Mdcore.Md_state.pos n in
    let sys =
      Swgmx.Kernel_common.make cfg ~box ~params ~cl ~topo:st.Mdcore.Md_state.topo
        ~ff:st.Mdcore.Md_state.ff ~pos:st.Mdcore.Md_state.pos
    in
    let pairs =
      Mdcore.Pair_list.build box cl ~pos:st.Mdcore.Md_state.pos ~rlist:rcut ()
    in
    let cg = Swarch.Core_group.create cfg in
    let outcome = Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Mark in
    ( outcome.Swgmx.Kernel.elapsed,
      (Swgmx.Kernel_common.e_lj outcome.Swgmx.Kernel.result),
      (Swgmx.Kernel_common.e_coul outcome.Swgmx.Kernel.result) )
  in
  let plain = run () in
  let traced = with_trace (fun () -> run ()) in
  Alcotest.(check bool) "bit-identical kernel outcome" true (plain = traced)

(* ------------------------------------------------------------------ *)
(* Roofline consistency with the cost model *)

let test_roofline_matches_cost () =
  with_trace (fun () ->
      let st = Mdcore.Water.build ~molecules:60 ~seed:7 () in
      let n = Mdcore.Md_state.n_atoms st in
      let box = st.Mdcore.Md_state.box in
      let rcut = Float.min 0.9 (0.45 *. Mdcore.Box.min_edge box) in
      let params =
        { Mdcore.Nonbonded.rcut; elec = Mdcore.Nonbonded.Reaction_field }
      in
      let cl = Mdcore.Cluster.build box st.Mdcore.Md_state.pos n in
      let sys =
        Swgmx.Kernel_common.make cfg ~box ~params ~cl
          ~topo:st.Mdcore.Md_state.topo ~ff:st.Mdcore.Md_state.ff
          ~pos:st.Mdcore.Md_state.pos
      in
      let pairs =
        Mdcore.Pair_list.build box cl ~pos:st.Mdcore.Md_state.pos ~rlist:rcut ()
      in
      let cg = Swarch.Core_group.create cfg in
      let outcome = Swgmx.Kernel.run sys pairs cg Swgmx.Variant.Mark in
      let total = Swarch.Core_group.total_cost cg in
      match Swtrace.Analysis.roofline (T.events ()) with
      | [ k ] ->
          Alcotest.(check string) "kernel name" "kernel:Mark"
            k.Swtrace.Analysis.name;
          Alcotest.(check (float 1e-9)) "span time = elapsed"
            outcome.Swgmx.Kernel.elapsed k.Swtrace.Analysis.time;
          Alcotest.(check (float 1e-6)) "dma bytes = Cost.dma_bytes"
            total.Swarch.Cost.dma_bytes k.Swtrace.Analysis.dma_bytes;
          Alcotest.(check (float 1e-12)) "dma time = Cost.dma_time"
            total.Swarch.Cost.dma_time_s k.Swtrace.Analysis.dma_time
      | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks))

(* ------------------------------------------------------------------ *)
(* Ring buffer overflow *)

let test_ring_overflow_drops_oldest () =
  T.enable ~capacity:4 ();
  Fun.protect
    ~finally:(fun () -> T.disable ())
    (fun () ->
      for i = 1 to 10 do
        T.span Track.Mpe (string_of_int i) ~t:(float_of_int i) ~dur:0.5
      done;
      Alcotest.(check int) "capacity respected" 4 (T.event_count ());
      Alcotest.(check int) "drops counted" 6 (T.dropped ());
      let names = List.map (fun e -> e.Event.name) (T.events ()) in
      Alcotest.(check (list string)) "newest survive" [ "7"; "8"; "9"; "10" ]
        names)

(* ------------------------------------------------------------------ *)
(* Track geometry.  The CPE lane count is global state that core-group
   creation sets, so every case restores the count it found. *)

let with_cpe_tracks f =
  let n0 = Track.cpe_tracks () in
  Fun.protect ~finally:(fun () -> Track.set_cpe_tracks n0) (fun () -> f n0)

(* counts the resize hooks that fire (hooks cannot be unregistered,
   so the counter is registered once for the whole suite) *)
let resizes = Atomic.make 0
let () = Track.on_resize (fun () -> Atomic.incr resizes)

let test_track_index_inverts () =
  let n = Track.cpe_tracks () in
  Alcotest.(check int) "MPE + CPEs + network + fault" (n + 3) (Track.count ());
  for i = 0 to Track.count () - 1 do
    Alcotest.(check int) (Printf.sprintf "index (of_index %d)" i) i
      (Track.index (Track.of_index i))
  done;
  Alcotest.(check int) "MPE first" 0 (Track.index Track.Mpe);
  Alcotest.(check int) "network after the CPEs" (n + 1) (Track.index Track.Net);
  Alcotest.(check int) "fault track last" (n + 2) (Track.index Track.Fault);
  Alcotest.(check (list string)) "lane names"
    [ "MPE"; "CPE 03"; "network"; "fault" ]
    (List.map Track.name [ Track.Mpe; Track.Cpe 3; Track.Net; Track.Fault ]);
  let rejects what f =
    Alcotest.(check bool) what true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "CPE past the mesh" (fun () -> Track.index (Track.Cpe n));
  rejects "negative CPE" (fun () -> Track.index (Track.Cpe (-1)));
  rejects "index past the last track" (fun () -> Track.of_index (n + 3));
  rejects "negative index" (fun () -> Track.of_index (-1))

let test_track_resize_hooks () =
  with_cpe_tracks (fun n0 ->
      let before = Atomic.get resizes in
      Track.set_cpe_tracks n0;
      Alcotest.(check int) "same count: no hook" before (Atomic.get resizes);
      Track.set_cpe_tracks (n0 + 4);
      Alcotest.(check int) "new count: hooks run" (before + 1)
        (Atomic.get resizes);
      Alcotest.(check int) "count follows" (n0 + 7) (Track.count ());
      Track.set_cpe_tracks (n0 + 4);
      Alcotest.(check int) "repeat: no hook" (before + 1) (Atomic.get resizes);
      Alcotest.(check bool) "zero lanes rejected" true
        (try Track.set_cpe_tracks 0; false with Invalid_argument _ -> true);
      Alcotest.(check int) "rejection leaves the count" (n0 + 4)
        (Track.cpe_tracks ()))

let test_track_concurrent_resize () =
  (* several domains instantiating the same new geometry at once: the
     check-and-resize is serialized, so the hooks run exactly once *)
  with_cpe_tracks (fun n0 ->
      let before = Atomic.get resizes in
      let go = Atomic.make false in
      let ds =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                Track.set_cpe_tracks (n0 + 5)))
      in
      Atomic.set go true;
      List.iter Domain.join ds;
      Alcotest.(check int) "hooks ran once" (before + 1) (Atomic.get resizes);
      Alcotest.(check int) "count installed" (n0 + 5) (Track.cpe_tracks ()))

let test_resize_keeps_events () =
  (* a geometry change moves the network and fault lanes' indices, but
     recorded events, cursors and open spans follow their track *)
  with_trace (fun () ->
      with_cpe_tracks (fun n0 ->
          T.span Track.Mpe "m" ~t:0.0 ~dur:1.0;
          T.span (Track.Cpe 2) "c2" ~t:0.5 ~dur:1.0;
          T.span Track.Net "net" ~t:1.0 ~dur:2.0;
          T.advance Track.Fault 3.0;
          T.push Track.Fault "open";
          Track.set_cpe_tracks (n0 + 8);
          Alcotest.(check int) "network index moved" (n0 + 9)
            (Track.index Track.Net);
          let tracks =
            List.map (fun e -> (e.Event.name, Track.name e.Event.track)) (T.events ())
          in
          Alcotest.(check (list (pair string string))) "events kept"
            [ ("c2", "CPE 02"); ("m", "MPE"); ("net", "network") ]
            (List.sort compare tracks);
          Alcotest.(check (float 0.0)) "fault cursor kept" 3.0 (T.now Track.Fault);
          Alcotest.(check int) "open span kept" 1 (T.depth Track.Fault);
          T.pop Track.Fault))

(* ------------------------------------------------------------------ *)
(* Chrome export: lane metadata *)

let ev ?(kind = Event.Span) ?(cat = "") ?(args = []) track name ~t ~dur =
  { Event.kind; track; name; cat; t; dur; value = 0.0; args }

let test_chrome_metadata_only_for_used_tracks () =
  let events =
    [ ev Track.Mpe "a" ~t:0.0 ~dur:1.0; ev (Track.Cpe 5) "b" ~t:0.0 ~dur:1.0 ]
  in
  let doc =
    match Json.of_string (Swtrace.Chrome.to_string events) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let entries =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let meta =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str "M"), Some (Json.Str name) ->
            let tid =
              match Json.member "tid" e with
              | Some (Json.Num n) -> int_of_float n
              | _ -> -1
            in
            Some (name, tid)
        | _ -> None)
      entries
  in
  let cpe5 = Track.index (Track.Cpe 5) in
  Alcotest.(check (list (pair string int))) "process + two named lanes"
    [
      ("process_name", -1);
      ("thread_name", 0);
      ("thread_sort_index", 0);
      ("thread_name", cpe5);
      ("thread_sort_index", cpe5);
    ]
    meta;
  Alcotest.(check int) "then the events" (List.length meta + 2)
    (List.length entries)

let test_chrome_write_file_matches_to_string () =
  let events =
    [
      ev Track.Mpe "step" ~cat:"step" ~t:0.0 ~dur:2e-3;
      ev (Track.Cpe 1) "k" ~cat:"kernel" ~args:[ ("flops", 3.0) ] ~t:1e-4 ~dur:1e-3;
      ev ~kind:Event.Instant Track.Net "halo" ~t:5e-4 ~dur:0.0;
    ]
  in
  let path = Filename.temp_file "swtrace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swtrace.Chrome.write_file path events;
      let ic = open_in_bin path in
      let written =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "streamed file = document"
        (Swtrace.Chrome.to_string events)
        written)

(* ------------------------------------------------------------------ *)
(* Text summary *)

let print f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let line_with prefix out =
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no line starting %S in:\n%s" prefix out

let test_summary_phase_shares () =
  (* phase shares are of the summed step time, not of the phases' own
     sum: a quarter of each step here is outside any phase *)
  let events =
    [
      ev Track.Mpe "step" ~cat:"step" ~t:0.0 ~dur:2.0;
      ev Track.Mpe "force" ~cat:"phase" ~t:0.0 ~dur:1.0;
      ev Track.Mpe "comm" ~cat:"phase" ~t:1.0 ~dur:0.5;
      ev Track.Mpe "step" ~cat:"step" ~t:2.0 ~dur:2.0;
      ev Track.Mpe "force" ~cat:"phase" ~t:2.0 ~dur:1.0;
      ev Track.Mpe "comm" ~cat:"phase" ~t:3.0 ~dur:0.5;
    ]
  in
  let out = print (fun ppf -> Swtrace.Summary.phase_summary ppf events) in
  Alcotest.(check string) "step line"
    "steps traced: 2, 4.0000e+00 s simulated total"
    (line_with "steps traced" out);
  let tokens l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  Alcotest.(check (list string)) "force row"
    [ "force"; "2"; "2.0000e+00"; "1.0000e+00"; "50.0%" ]
    (tokens (line_with "force " out));
  Alcotest.(check (list string)) "comm row"
    [ "comm"; "2"; "1.0000e+00"; "5.0000e-01"; "25.0%" ]
    (tokens (line_with "comm " out))

let test_summary_empty_and_roofline () =
  let empty =
    print (fun ppf -> Swtrace.Summary.print ~platform:"probe (4 lanes)" ppf [])
  in
  List.iter
    (fun l -> ignore (line_with l empty))
    [ "platform: probe (4 lanes)"; "no phase spans recorded"; "no kernel spans recorded" ];
  (* one kernel at 2 flop/B: with a 10 flop/s peak and 1 B/s of
     bandwidth its roof is 2 flop/s, memory-bound, and it attains 1 *)
  let k =
    ev Track.Mpe "kernel:k" ~cat:"kernel"
      ~args:[ ("flops", 4.0); ("dma_bytes", 2.0); ("dma_time", 1.0) ]
      ~t:0.0 ~dur:4.0
  in
  let out =
    print (fun ppf ->
        Swtrace.Summary.roofline_summary ~peak_flops:10.0 ~peak_bw:1.0 ppf [ k ])
  in
  Alcotest.(check bool) "memory-bound at 50% of its roof" true
    (List.exists
       (fun l ->
         let t = String.trim l in
         t = "bound: 50.0% of memory roof (0.00 Gflop/s)")
       (String.split_on_char '\n' out))

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let test_ring_wraps_oldest_first () =
  let r = Swtrace.Ring.create ~capacity:3 ~dummy:0 in
  for i = 1 to 5 do
    Swtrace.Ring.push r i
  done;
  Alcotest.(check int) "length" 3 (Swtrace.Ring.length r);
  Alcotest.(check int) "dropped" 2 (Swtrace.Ring.dropped r);
  Alcotest.(check (list int)) "to_list oldest first" [ 3; 4; 5 ]
    (Swtrace.Ring.to_list r);
  let seen = ref [] in
  Swtrace.Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter oldest first" [ 3; 4; 5 ] (List.rev !seen);
  Alcotest.(check bool) "zero capacity rejected" true
    (try ignore (Swtrace.Ring.create ~capacity:0 ~dummy:0); false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "swtrace",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "unmatched pop ignored" `Quick
          test_unmatched_pop_ignored;
        Alcotest.test_case "counter accumulation" `Quick
          test_counter_accumulation;
        Alcotest.test_case "chrome JSON round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "JSON parser rejects garbage" `Quick
          test_json_parser_rejects_garbage;
        Alcotest.test_case "disabled: no output" `Quick test_disabled_no_output;
        Alcotest.test_case "disabled: zero allocation" `Quick
          test_disabled_zero_allocation;
        Alcotest.test_case "DMA histogram bucketing" `Quick
          test_dma_histogram_bucketing;
        Alcotest.test_case "DMA histogram matches Table 2" `Quick
          test_dma_histogram_matches_bandwidth_curve;
        Alcotest.test_case "observer effect: measure" `Quick
          test_tracing_does_not_change_measurement;
        Alcotest.test_case "observer effect: kernel" `Quick
          test_tracing_does_not_change_kernel_result;
        Alcotest.test_case "roofline matches cost model" `Quick
          test_roofline_matches_cost;
        Alcotest.test_case "ring overflow drops oldest" `Quick
          test_ring_overflow_drops_oldest;
        Alcotest.test_case "ring wraps oldest first" `Quick
          test_ring_wraps_oldest_first;
        Alcotest.test_case "track index inverts" `Quick test_track_index_inverts;
        Alcotest.test_case "track resize hooks" `Quick test_track_resize_hooks;
        Alcotest.test_case "concurrent resize runs hooks once" `Quick
          test_track_concurrent_resize;
        Alcotest.test_case "resize keeps events by track" `Quick
          test_resize_keeps_events;
        Alcotest.test_case "chrome metadata: used tracks only" `Quick
          test_chrome_metadata_only_for_used_tracks;
        Alcotest.test_case "chrome write_file = to_string" `Quick
          test_chrome_write_file_matches_to_string;
        Alcotest.test_case "summary: phase shares" `Quick
          test_summary_phase_shares;
        Alcotest.test_case "summary: empty trace and roofline" `Quick
          test_summary_empty_and_roofline;
      ] );
  ]
