(** Asynchronous DMA engine over the event queue.

    Requests are issued with a service demand (the Table-2 bus seconds
    of the transfer, as charged by {!Swarch.Dma}) and complete through
    a callback at their simulated finish time.  Two mechanisms shape
    the timeline:

    - {b bounded in-flight requests}: at most [slots] transfers are in
      service at once (the hardware DMA channels' request slots);
      further requests wait in a FIFO backlog, which is how
      back-pressure reaches the issuing CPEs;
    - {b bus contention}: the shared bus sustains [channels] concurrent
      full-rate streams (the {!Swarch.Config.dma_channels} figure).
      When [k] transfers are in flight, each progresses at rate
      [min 1 (channels / k)], so the Table-2 bandwidth degrades as the
      channels saturate while aggregate throughput stays capped at
      [channels] streams — a processor-sharing model whose completion
      times are recomputed at every issue and completion event. *)

(* the per-transfer mutable floats live in an all-float sub-record:
   a float field of a mixed record is boxed, so updating it in the
   processor-sharing progress loop would allocate on every event —
   an all-float record stores its fields flat *)
type progress = {
  mutable remaining : float;  (** demand not yet served *)
  mutable issued_at : float;  (** reset on each retry admission *)
}

type request = {
  id : int;
  bytes : int;
  demand : float;  (** bus seconds at full Table-2 rate *)
  pr : progress;
  mutable attempt : int;  (** service attempts so far *)
  mutable fault : int;  (** pending injection id, [-1] if none *)
  on_complete : float -> unit;
}

(* mutable float statistics, flat for the same reason as [progress]:
   [advance] updates them on every event of the replay *)
type stats = {
  mutable last_update : float;
  mutable bytes_moved : float;
  mutable busy_s : float;  (** time with at least one transfer in flight *)
  mutable contended_s : float;  (** busy time with the bus saturated *)
  mutable queue_wait_s : float;  (** total backlog + slowdown waiting *)
}

type t = {
  sim : Sim.t;
  channels : float;  (** concurrent full-rate streams the bus sustains *)
  slots : int;  (** bounded in-flight transfers *)
  faults : Swfault.Injector.t option;
  on_fault : string -> id:int -> t:float -> dur:float -> unit;
  mutable active : request list;  (** in service, issue order *)
  backlog : request Queue.t;  (** waiting for a slot *)
  st : stats;
  mutable generation : int;  (** invalidates stale completion events *)
  mutable next_id : int;
  (* statistics *)
  mutable requests : int;
  mutable peak_in_flight : int;
  mutable retries : int;  (** transfer errors retried after backoff *)
}

(** [create ?channels ?slots ?faults ?on_fault sim cfg] is an idle
    engine.  [channels] defaults to [cfg.dma_channels] (so an
    uncontended schedule reproduces the analytic bus model); [slots]
    defaults to 4.  With [faults], each completed service round may be
    struck by a transfer error and re-enter the queue after an
    exponential backoff; [on_fault name ~id ~t ~dur] reports each
    injection/retry/recovery so the replay can put it on the fault
    track. *)
let create ?channels ?(slots = 4) ?faults
    ?(on_fault = fun _ ~id:_ ~t:_ ~dur:_ -> ()) sim (cfg : Swarch.Config.t) =
  let channels =
    match channels with Some c -> c | None -> cfg.Swarch.Config.dma_channels
  in
  if channels <= 0.0 then invalid_arg "Dma_engine.create: channels <= 0";
  if slots < 1 then invalid_arg "Dma_engine.create: slots < 1";
  {
    sim;
    channels;
    slots;
    faults;
    on_fault;
    active = [];
    backlog = Queue.create ();
    st =
      {
        last_update = 0.0;
        bytes_moved = 0.0;
        busy_s = 0.0;
        contended_s = 0.0;
        queue_wait_s = 0.0;
      };
    generation = 0;
    next_id = 0;
    requests = 0;
    peak_in_flight = 0;
    retries = 0;
  }

let rate t k = if k = 0 then 0.0 else Float.min 1.0 (t.channels /. float_of_int k)

(* progress every in-service transfer to the current instant *)
let advance t =
  let now = Sim.now t.sim in
  let dt = now -. t.st.last_update in
  if dt > 0.0 then begin
    let k = List.length t.active in
    if k > 0 then begin
      let r = rate t k in
      List.iter (fun q -> q.pr.remaining <- q.pr.remaining -. (dt *. r)) t.active;
      t.st.busy_s <- t.st.busy_s +. dt;
      if float_of_int k > t.channels then
        t.st.contended_s <- t.st.contended_s +. dt
    end;
    t.st.last_update <- now
  end

let eps_of q = Float.max (1e-12 *. q.demand) 1e-18

let rec reschedule t =
  t.generation <- t.generation + 1;
  let gen = t.generation in
  match t.active with
  | [] -> ()
  | active ->
      let k = List.length active in
      let r = rate t k in
      let min_rem =
        List.fold_left (fun m q -> Float.min m (Float.max 0.0 q.pr.remaining))
          infinity active
      in
      let at = Sim.now t.sim +. (min_rem /. r) in
      Sim.schedule t.sim ~at (fun () ->
          if gen = t.generation then complete t)

and complete t =
  advance t;
  let done_, rest =
    List.partition (fun q -> q.pr.remaining <= eps_of q) t.active
  in
  t.active <- rest;
  (* a completed service round may have been struck by a transfer
     error: failed rounds re-enter the queue after a backoff and only
     clean completions fire their callback *)
  let ok = List.filter (fun q -> not (maybe_retry t q)) done_ in
  (* freed slots go to the backlog first (FIFO fairness): requests
     issued from completion callbacks queue behind earlier arrivals *)
  while List.length t.active < t.slots && not (Queue.is_empty t.backlog) do
    let q = Queue.pop t.backlog in
    t.active <- t.active @ [ q ]
  done;
  reschedule t;
  let now = Sim.now t.sim in
  List.iter
    (fun q ->
      (match t.faults with
      | Some inj when q.fault >= 0 ->
          (* the backed-off retry served the full demand: the pending
             injection is recovered *)
          t.on_fault "recover:dma-retry" ~id:q.fault ~t:now ~dur:0.0;
          Swfault.Injector.note_recovered inj;
          q.fault <- -1
      | _ -> ());
      t.st.queue_wait_s <- t.st.queue_wait_s +. (now -. q.pr.issued_at -. q.demand);
      q.on_complete now)
    ok

(* Transfer error on this service round?  If a previous error was
   pending, this round *was* its retry and did complete the bus work —
   close it as recovered before opening the new injection.  The retry
   re-enters the queue with its demand reset after an exponential
   backoff; exhausting [dma_max_retries] is unrecoverable. *)
and maybe_retry t q =
  match t.faults with
  | None -> false
  | Some inj ->
      if not (Swfault.Injector.dma_error inj ~id:q.id ~attempt:q.attempt) then
        false
      else begin
        let now = Sim.now t.sim in
        if q.fault >= 0 then begin
          t.on_fault "recover:dma-retry" ~id:q.fault ~t:now ~dur:0.0;
          Swfault.Injector.note_recovered inj;
          q.fault <- -1
        end;
        if q.attempt + 1 >= Swfault.Injector.dma_max_retries inj then
          Swfault.Error.fault ~phase:"dma"
            (Printf.sprintf
               "transfer %d (%d bytes): error persisted through %d attempts"
               q.id q.bytes (q.attempt + 1));
        let id = Swfault.Injector.fresh inj in
        let backoff = Swfault.Injector.dma_backoff inj ~attempt:q.attempt in
        t.on_fault "inject:dma-error" ~id ~t:now ~dur:0.0;
        t.on_fault "retry:dma-backoff" ~id ~t:now ~dur:backoff;
        q.fault <- id;
        q.attempt <- q.attempt + 1;
        q.pr.remaining <- q.demand;
        t.retries <- t.retries + 1;
        Sim.schedule t.sim ~at:(now +. backoff) (fun () -> readmit t q);
        true
      end

(* re-admit a backed-off retry: same slot/backlog discipline as a
   fresh issue, with the wait clock restarted *)
and readmit t q =
  advance t;
  q.pr.issued_at <- Sim.now t.sim;
  if List.length t.active < t.slots then begin
    t.active <- t.active @ [ q ];
    t.peak_in_flight <- max t.peak_in_flight (List.length t.active)
  end
  else Queue.push q t.backlog;
  reschedule t

(** [issue t ~bytes ~demand ~on_complete] submits one transfer at the
    current instant; [on_complete] fires with the simulated completion
    time.  [demand] is the transfer's full-rate bus time — pass the
    value charged by {!Swarch.Dma} so scheduled and analytic bus time
    agree in the uncontended case. *)
let issue t ~bytes ~demand ~on_complete =
  if demand < 0.0 then invalid_arg "Dma_engine.issue: negative demand";
  advance t;
  let q =
    {
      id = t.next_id;
      bytes;
      demand;
      pr = { remaining = demand; issued_at = Sim.now t.sim };
      attempt = 0;
      fault = -1;
      on_complete;
    }
  in
  t.next_id <- t.next_id + 1;
  t.requests <- t.requests + 1;
  t.st.bytes_moved <- t.st.bytes_moved +. float_of_int bytes;
  if demand <= 0.0 then
    (* zero-cost transfer: complete immediately, but through the event
       queue so ordering stays deterministic *)
    Sim.schedule t.sim ~at:(Sim.now t.sim) (fun () -> on_complete (Sim.now t.sim))
  else begin
    if List.length t.active < t.slots then begin
      t.active <- t.active @ [ q ];
      t.peak_in_flight <- max t.peak_in_flight (List.length t.active)
    end
    else Queue.push q t.backlog;
    reschedule t
  end

(** Statistics accessors. *)
let requests t = t.requests

let bytes_moved t = t.st.bytes_moved
let busy_seconds t = t.st.busy_s
let contended_seconds t = t.st.contended_s
let queue_wait_seconds t = t.st.queue_wait_s
let peak_in_flight t = t.peak_in_flight
let retries t = t.retries
