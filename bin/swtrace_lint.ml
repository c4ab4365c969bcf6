(* swtrace_lint: validate a Chrome trace_event JSON file produced by
   the swtrace exporter.

   Checks, in order:
   - the file parses as JSON and has a "traceEvents" array;
   - every event carries the required fields (name, ph, pid, tid, ts);
   - no complete event (ph:"X") has a negative duration;
   - thread_name metadata declares the MPE, at least one CPE lane and
     the network track (the >= 3 track types the tracing subsystem
     promises);
   - at least one "step" span and one "phase" span are present;
   - scheduler spans (cat:"sched", from a pipelined kernel) properly
     nest within each track: on one tid they may contain each other
     but never partially overlap.

   Exits 0 when the trace is well-formed, 1 otherwise — used by the
   @smoke alias to gate `dune runtest` on a real end-to-end trace. *)

let fail fmt = Fmt.kstr (fun m -> Fmt.epr "swtrace_lint: %s@." m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        Fmt.epr "usage: swtrace_lint TRACE.json@.";
        exit 2
  in
  let json =
    match Swtrace.Json.of_string (read_file path) with
    | Ok j -> j
    | Error msg -> fail "%s: not valid JSON: %s" path msg
  in
  let events =
    match Swtrace.Json.member "traceEvents" json with
    | Some (Swtrace.Json.Arr evs) -> evs
    | Some _ -> fail "%s: traceEvents is not an array" path
    | None -> fail "%s: missing traceEvents" path
  in
  if events = [] then fail "%s: traceEvents is empty" path;
  let str_field ev key =
    match Swtrace.Json.member key ev with
    | Some (Swtrace.Json.Str s) -> Some s
    | _ -> None
  in
  List.iteri
    (fun i ev ->
      (* metadata events (ph:"M") carry no timestamp, and process-scoped
         metadata has no tid; everything else needs the full set *)
      let required =
        if str_field ev "ph" = Some "M" then [ "name"; "ph"; "pid" ]
        else [ "name"; "ph"; "pid"; "tid"; "ts" ]
      in
      List.iter
        (fun key ->
          if Swtrace.Json.member key ev = None then
            fail "%s: event %d lacks required field %S" path i key)
        required)
    events;
  let thread_names =
    List.filter_map
      (fun ev ->
        if str_field ev "name" = Some "thread_name" then
          match Swtrace.Json.member "args" ev with
          | Some args -> str_field args "name"
          | None -> None
        else None)
      events
  in
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if not (List.mem "MPE" thread_names) then
    fail "%s: no thread_name metadata for the MPE track" path;
  if not (List.exists (has_prefix "CPE") thread_names) then
    fail "%s: no thread_name metadata for any CPE track" path;
  if not (List.mem "network" thread_names) then
    fail "%s: no thread_name metadata for the network track" path;
  let num_field ev key =
    match Swtrace.Json.member key ev with
    | Some (Swtrace.Json.Num x) -> Some x
    | _ -> None
  in
  (* negative durations are always a bug in the emitter *)
  List.iteri
    (fun i ev ->
      if str_field ev "ph" = Some "X" then
        match num_field ev "dur" with
        | Some d when d < 0.0 ->
            fail "%s: event %d (%s) has negative duration %g us" path i
              (Option.value ~default:"?" (str_field ev "name"))
              d
        | _ -> ())
    events;
  (* within each track, timestamps must be non-decreasing in file
     order: the recorder appends monotonically per track and the
     domain-parallel merge must preserve that order, so a regression
     here means shards were merged out of order *)
  let last_ts = Hashtbl.create 16 in
  List.iteri
    (fun i ev ->
      if str_field ev "ph" <> Some "M" then
        match (num_field ev "tid", num_field ev "ts") with
        | Some tid, Some ts -> (
            match Hashtbl.find_opt last_ts tid with
            | Some prev when ts < prev ->
                fail
                  "%s: event %d (%s) on tid %g goes back in time (%g us after \
                   %g us) — parallel merge out of order?"
                  path i
                  (Option.value ~default:"?" (str_field ev "name"))
                  tid ts prev
            | _ -> Hashtbl.replace last_ts tid ts)
        | _ -> ())
    events;
  let spans_with_cat c =
    List.length
      (List.filter
         (fun ev -> str_field ev "ph" = Some "X" && str_field ev "cat" = Some c)
         events)
  in
  let steps = spans_with_cat "step" in
  if steps = 0 then fail "%s: no step spans recorded" path;
  let phases = spans_with_cat "phase" in
  if phases = 0 then fail "%s: no phase spans recorded" path;
  (* scheduler spans must nest: within one tid, sort by (start asc,
     duration desc) and check each span fits inside the innermost
     still-open one.  Tolerance absorbs the %.12g round-trip. *)
  let sched_spans =
    List.filter_map
      (fun ev ->
        if str_field ev "ph" = Some "X" && str_field ev "cat" = Some "sched"
        then
          match (num_field ev "tid", num_field ev "ts", num_field ev "dur") with
          | Some tid, Some ts, Some dur ->
              Some (tid, ts, dur, Option.value ~default:"?" (str_field ev "name"))
          | _ -> None
        else None)
      events
  in
  let eps = 1e-6 (* us *) in
  let by_tid = Hashtbl.create 16 in
  List.iter
    (fun (tid, ts, dur, name) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
      Hashtbl.replace by_tid tid ((ts, dur, name) :: cur))
    sched_spans;
  Hashtbl.iter
    (fun tid spans ->
      let sorted =
        List.sort
          (fun (t1, d1, _) (t2, d2, _) ->
            match Float.compare t1 t2 with
            | 0 -> Float.compare d2 d1
            | c -> c)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun (ts, dur, name) ->
          let fin = ts +. dur in
          (* close spans that ended before this one starts *)
          while
            match !stack with
            | (_, e) :: _ -> e <= ts +. eps
            | [] -> false
          do
            stack := List.tl !stack
          done;
          (match !stack with
          | (pname, pend) :: _ when fin > pend +. eps ->
              fail
                "%s: sched span %S [%g..%g us] on tid %g overlaps %S ending at \
                 %g us"
                path name ts fin tid pname pend
          | _ -> ());
          stack := (name, fin) :: !stack)
        sorted)
    by_tid;
  (* fault-track pairing: every injection carries a numeric "id" and
     must eventually be closed by a recovery event with the same id at
     a timestamp no earlier than the injection — an unpaired injection
     means a fault escaped the recovery machinery *)
  let fault_events =
    List.filter (fun ev -> str_field ev "cat" = Some "fault") events
  in
  let args_id ev =
    match Swtrace.Json.member "args" ev with
    | Some args -> num_field args "id"
    | None -> None
  in
  let with_prefix p =
    List.filter_map
      (fun ev ->
        match str_field ev "name" with
        | Some n when has_prefix p n -> Some (ev, n)
        | _ -> None)
      fault_events
  in
  let injects = with_prefix "inject:" in
  let recovers = with_prefix "recover:" in
  let recover_times = Hashtbl.create 64 in
  List.iter
    (fun (ev, name) ->
      match (args_id ev, num_field ev "ts") with
      | Some id, Some ts -> Hashtbl.replace recover_times id ts
      | _ -> fail "%s: fault event %S lacks a numeric id or ts" path name)
    recovers;
  List.iter
    (fun (ev, name) ->
      match (args_id ev, num_field ev "ts") with
      | Some id, Some ts -> (
          match Hashtbl.find_opt recover_times id with
          | None ->
              fail "%s: fault injection %S (id %g) has no recovery event" path
                name id
          | Some rts when rts < ts -. eps ->
              fail
                "%s: fault injection %S (id %g) at %g us recovered earlier, \
                 at %g us"
                path name id ts rts
          | Some _ -> ())
      | _ -> fail "%s: fault event %S lacks a numeric id or ts" path name)
    injects;
  (* offload-span nesting: every tile span (cat "offload-tile") must
     sit inside a kernel span (cat "offload") on the same tid — a tile
     outside its kernel means the driver's clock reconstruction broke *)
  let x_spans cat =
    List.filter_map
      (fun ev ->
        if str_field ev "ph" = Some "X" && str_field ev "cat" = Some cat then
          match (num_field ev "tid", num_field ev "ts", num_field ev "dur") with
          | Some tid, Some ts, Some dur ->
              Some (tid, ts, dur, Option.value ~default:"?" (str_field ev "name"))
          | _ -> None
        else None)
      events
  in
  let offload_kernels = x_spans "offload" in
  let offload_tiles = x_spans "offload-tile" in
  List.iter
    (fun (tid, ts, dur, name) ->
      let inside =
        List.exists
          (fun (ktid, kts, kdur, _) ->
            ktid = tid && kts <= ts +. eps && ts +. dur <= kts +. kdur +. eps)
          offload_kernels
      in
      if not inside then
        fail
          "%s: offload tile span %S [%g..%g us] on tid %g is not contained in \
           any offload kernel span"
          path name ts (ts +. dur) tid)
    offload_tiles;
  (* offload DMA pairing: per (tid, tile), a "dma-issue" marker must be
     matched by a "dma-retire" no earlier than it — an unpaired issue
     means a tile's writeback never happened *)
  let offload_dma =
    List.filter (fun ev -> str_field ev "cat" = Some "offload-dma") events
  in
  let dma_named n =
    List.filter_map
      (fun ev ->
        if str_field ev "name" = Some n then
          match
            ( num_field ev "tid",
              (match Swtrace.Json.member "args" ev with
              | Some args -> num_field args "tile"
              | None -> None),
              num_field ev "ts" )
          with
          | Some tid, Some tile, Some ts -> Some ((tid, tile), ts)
          | _ -> fail "%s: offload-dma event %S lacks tid, tile arg or ts" path n
        else None)
      offload_dma
  in
  let issues = dma_named "dma-issue" in
  let retires = Hashtbl.create 64 in
  List.iter
    (fun (key, ts) ->
      let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt retires key) in
      Hashtbl.replace retires key (Float.max prev ts))
    (dma_named "dma-retire");
  List.iter
    (fun ((tid, tile), ts) ->
      match Hashtbl.find_opt retires (tid, tile) with
      | None ->
          fail "%s: offload dma-issue for tile %g on tid %g has no dma-retire"
            path tile tid
      | Some rts when rts < ts -. eps ->
          fail
            "%s: offload dma-issue for tile %g on tid %g at %g us retires \
             earlier, at %g us"
            path tile tid ts rts
      | Some _ -> ())
    issues;
  Fmt.pr
    "swtrace_lint: %s OK (%d events, %d tracks, %d step spans, %d phase \
     spans, %d sched spans, %d/%d faults recovered, %d offload tiles \
     nested, %d offload DMA pairs)@."
    path (List.length events) (List.length thread_names) steps phases
    (List.length sched_spans) (List.length recovers) (List.length injects)
    (List.length offload_tiles) (List.length issues)
