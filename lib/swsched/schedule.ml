(** Replay side of the scheduler: runs a recorded program against the
    discrete-event core and the contended DMA engine, producing the
    overlapped timeline.

    Each phase is a barrier group: all of its tasks start together at
    the end of the previous phase.  Within a task, items execute in
    order; the prefetch of item [k] is issued as soon as the body of
    item [k - buffers] has completed (items [0 .. buffers-1] prefetch
    at task start), and the body of item [k] starts once both the
    previous body and item [k]'s prefetch are done.  Blocking
    operations ([Get], synchronous [Put]) stall the CPE cursor until
    the engine completes them; asynchronous [Put]s only hold the task
    open at its end.

    The replay never reorders physics — it only re-times the recorded
    operations — so the scheduled elapsed time is a bound-respecting
    estimate: at least [max compute] and at least
    [total demand / channels], i.e. never below the ideal overlap
    [max (Core_group.max_compute_time) (Core_group.dma_time)]. *)

type span = {
  track : int;
  name : string;
  cat : string;
  t : float;
  dur : float;
  args : (string * float) list;
}

type result = {
  elapsed : float;  (** end of the last phase, seconds of simulated time *)
  phase_ends : (string * float) list;
  spans : span list;
      (** timeline spans; [track = -1] is the MPE, [-2] the fault track *)
  dma_requests : int;
  dma_bytes : float;
  bus_busy_s : float;
  bus_contended_s : float;
  queue_wait_s : float;
  peak_in_flight : int;
  dma_retries : int;  (** injected transfer errors retried after backoff *)
  events : int;  (** events processed; determinism tests compare it *)
}

(* one CPE task replayed as a little event-driven machine.  [slow]
   scales recorded compute (an injected CPE slowdown); [stall] delays
   the task's compute once at its start.  The healthy values (1.0, 0.0)
   leave the replay bit-identical: [d *. 1.0 = d] and the stall branch
   is not taken. *)
let run_task sim eng emit ~start ~depth ~track ~slow ~stall
    (items : Recorder.item array) ~on_done =
  let n = Array.length items in
  if n = 0 then on_done start
  else begin
    let pre_ready = Array.make n neg_infinity in
    let pre_pending = Array.make n max_int (* max_int = not yet issued *) in
    let next_prefetch = ref 0 in
    let body_done = ref 0 in
    let cursor = ref (if stall > 0.0 then start +. stall else start) in
    let outstanding = ref 0 in
    let put_end = ref start in
    let finished = ref false in
    let waiting_for = ref (-1) in
    let rec maybe_prefetch () =
      (* issue at the current instant every prefetch the depth allows *)
      while !next_prefetch < n && !next_prefetch < !body_done + depth do
        let i = !next_prefetch in
        incr next_prefetch;
        let xs = items.(i).Recorder.prefetch in
        pre_pending.(i) <- List.length xs;
        if xs = [] then pre_ready.(i) <- Sim.now sim
        else
          List.iter
            (fun (x : Recorder.xfer) ->
              Dma_engine.issue eng ~bytes:x.bytes ~demand:x.demand
                ~on_complete:(fun tdone ->
                  pre_pending.(i) <- pre_pending.(i) - 1;
                  if pre_pending.(i) = 0 then begin
                    pre_ready.(i) <- tdone;
                    if !waiting_for = i then begin
                      waiting_for := -1;
                      emit track "dma-wait" !cursor (tdone -. !cursor);
                      cursor := tdone;
                      start_body i
                    end
                  end))
            xs
      done
    and start_body i =
      let bstart = !cursor in
      run_ops items.(i).Recorder.body (fun () ->
          emit track "pkg" bstart (!cursor -. bstart);
          body_done := i + 1;
          Sim.schedule sim ~at:!cursor advance)
    and advance () =
      maybe_prefetch ();
      if !body_done < n then try_body !body_done else check_done ()
    and try_body i =
      if pre_pending.(i) = 0 then begin
        (* prefetch completed in the simulated past; no stall *)
        if pre_ready.(i) > !cursor then cursor := pre_ready.(i);
        start_body i
      end
      else waiting_for := i
    and check_done () =
      if !body_done = n && !outstanding = 0 && not !finished then begin
        finished := true;
        let tend = Float.max !cursor !put_end in
        emit track "cpe-pipe" start (tend -. start);
        on_done tend
      end
    and run_ops ops k =
      match ops with
      | [] -> k ()
      | Recorder.Work d :: rest ->
          cursor := !cursor +. (d *. slow);
          run_ops rest k
      | Recorder.Get { bytes; demand; sync = _ } :: rest
      | Recorder.Put { bytes; demand; sync = true } :: rest ->
          sync_xfer bytes demand rest k
      | Recorder.Put { bytes; demand; sync = false } :: rest ->
          incr outstanding;
          let at = !cursor in
          Sim.schedule sim ~at (fun () ->
              Dma_engine.issue eng ~bytes ~demand ~on_complete:(fun tdone ->
                  decr outstanding;
                  put_end := Float.max !put_end tdone;
                  check_done ()));
          run_ops rest k
    and sync_xfer bytes demand rest k =
      let at = !cursor in
      Sim.schedule sim ~at (fun () ->
          Dma_engine.issue eng ~bytes ~demand ~on_complete:(fun tdone ->
              emit track "dma-wait" at (tdone -. at);
              cursor := tdone;
              run_ops rest k))
    in
    Sim.schedule sim ~at:start advance
  end

(** [run ?channels ?slots ?buffers ?faults cfg recorder] replays the
    recorded program.  [channels] and [slots] parameterise the DMA
    engine (see {!Dma_engine.create}); [buffers], when given, overrides
    the pipeline depth every task recorded.  With [faults], DMA
    transfer errors re-enter the engine queue after backoff (the
    retries appear as fault-track spans), and injected CPE
    slowdowns/stalls scale the recorded compute of the affected
    tracks. *)
let run ?channels ?slots ?buffers ?faults cfg recorder =
  let sim = Sim.create () in
  let spans = ref [] in
  let on_fault name ~id ~t ~dur =
    spans :=
      { track = -2; name; cat = "fault"; t; dur; args = [ ("id", float_of_int id) ] }
      :: !spans
  in
  let eng = Dma_engine.create ?channels ?slots ?faults ~on_fault sim cfg in
  let emit track name t dur =
    spans := { track; name; cat = "sched"; t; dur; args = [] } :: !spans
  in
  let degradation id =
    match faults with
    | None -> (1.0, 0.0)
    | Some inj ->
        (Swfault.Injector.cpe_slowdown inj id, Swfault.Injector.cpe_stall inj id)
  in
  let phase_ends = ref [] in
  let t_phase = ref 0.0 in
  List.iter
    (fun (ph : Recorder.phase) ->
      let start = !t_phase in
      let phase_end = ref start in
      List.iter
        (fun (task : Recorder.task) ->
          let depth =
            match buffers with Some b -> max 1 b | None -> task.buffers
          in
          let slow, stall = degradation task.id in
          run_task sim eng emit ~start ~depth ~track:task.id ~slow ~stall
            (Array.of_list task.items) ~on_done:(fun tend ->
              phase_end := Float.max !phase_end tend))
        ph.tasks;
      Sim.run sim;
      if ph.tasks <> [] then begin
        emit (-1) ph.name start (!phase_end -. start);
        phase_ends := (ph.name, !phase_end) :: !phase_ends;
        t_phase := !phase_end
      end)
    (Recorder.phases recorder);
  {
    elapsed = !t_phase;
    phase_ends = List.rev !phase_ends;
    spans = List.rev !spans;
    dma_requests = Dma_engine.requests eng;
    dma_bytes = Dma_engine.bytes_moved eng;
    bus_busy_s = Dma_engine.busy_seconds eng;
    bus_contended_s = Dma_engine.contended_seconds eng;
    queue_wait_s = Dma_engine.queue_wait_seconds eng;
    peak_in_flight = Dma_engine.peak_in_flight eng;
    dma_retries = Dma_engine.retries eng;
    events = Sim.processed sim;
  }
