(** The planner: price a {!Phase.step} and schedule it.

    Pricing runs every executor exactly once, in phase-list order,
    chip phases first (so the on-chip sync window is known before any
    [Comm] phase is priced through {!Swcomm.Step_comm.compute}).

    Two plans:

    - [Serial] tiles all phases back to back in list order — the
      pre-swstep step timeline, reproduced number for number;
    - [Overlap] runs the chip and network lanes concurrently, each in
      list order, a phase starting as soon as its lane is free and its
      dependencies have finished.  Communication hidden behind
      independent compute disappears from the step: each comm phase is
      accounted only for the chip stall it causes plus the part
      sticking out past the end of the chip lane, so the derived rows
      still sum to the step's makespan.

    The critical path (longest dependency chain) lower-bounds the
    overlapped makespan; the serial sum upper-bounds it. *)

type mode = Serial | Overlap

type priced = {
  phase : Phase.t;
  resource : Phase.resource;
  duration : float;  (** priced simulated seconds *)
  start : float;  (** scheduled start, relative to step begin *)
  finish : float;  (** [start + duration] *)
  exposed : float;
      (** contribution to the phase's row under this plan: the full
          duration for chip phases, the unhidden part for comm phases *)
}

(** One tile of the derived step timeline; segments are sorted by
    start and tile [0, total]. *)
type segment = {
  seg_name : string;
  seg_row : string;
  seg_start : float;
  seg_dur : float;
}

type result = {
  label : string;
  mode : mode;
  phases : priced list;
  rows : (string * float) list;
      (** Table-1 rows in the step's canonical order; sums to [total] *)
  total : float;  (** step makespan under the plan *)
  critical_path : float;  (** longest dependency chain, a lower bound *)
  compute_window : float;  (** summed durations of [sync] phases *)
  comm_total : float;  (** full duration of all communication phases *)
  comm_hidden : float;  (** communication overlapped behind compute *)
  segments : segment list;
}

(* ------------------------------------------------------------------ *)
(* pricing *)

let rec price_exec cfg cg ~t0 ~chip_offset ~window (exec : Phase.executor) =
  match exec with
  | Phase.Mpe_analytic w -> Phase.mpe_time cfg w
  | Phase.Cpe_streamed w -> Phase.cpe_time cfg w
  | Phase.Simulated run ->
      (* park the MPE trace cursor where the phase sits in the chip
         timeline, so spans emitted by the executor (kernel lanes, PME
         detail) land inside the phase *)
      if Swtrace.Trace.enabled () then
        Swtrace.Trace.set_now Swtrace.Track.Mpe (t0 +. chip_offset);
      run cg
  | Phase.Comm { request; part } ->
      let b =
        Swcomm.Step_comm.compute ~trace:false
          { request with Swcomm.Step_comm.compute_time = window }
      in
      (match part with
      | Phase.Halo -> b.Swcomm.Step_comm.halo
      | Phase.Pme_transpose -> b.Swcomm.Step_comm.pme
      | Phase.Energies -> b.Swcomm.Step_comm.energies
      | Phase.Domain_decomp -> b.Swcomm.Step_comm.domain_decomp)
  | Phase.Amortized (k, inner) ->
      if k < 1 then invalid_arg "Swstep: Amortized interval must be positive";
      price_exec cfg cg ~t0 ~chip_offset ~window inner.Phase.exec
      /. float_of_int k

(** [price ~cfg ~cg ~t0 step] runs every executor once and returns
    (phases, durations, sync window).  Chip phases are priced first in
    list order — [Simulated] executors therefore run in declaration
    order, with the trace cursor parked at their chip offset — then
    [Comm] phases with the resulting sync window. *)
let price ~cfg ~cg ~t0 (step : Phase.step) =
  let phases = Array.of_list step.Phase.phases in
  let n = Array.length phases in
  let dur = Array.make n 0.0 in
  let offset = ref 0.0 in
  Array.iteri
    (fun i (p : Phase.t) ->
      if Phase.resource_of p.Phase.exec = Phase.Chip then begin
        dur.(i) <-
          price_exec cfg cg ~t0 ~chip_offset:!offset ~window:0.0 p.Phase.exec;
        offset := !offset +. dur.(i)
      end)
    phases;
  let window = ref 0.0 in
  Array.iteri
    (fun i (p : Phase.t) -> if p.Phase.sync then window := !window +. dur.(i))
    phases;
  Array.iteri
    (fun i (p : Phase.t) ->
      if Phase.resource_of p.Phase.exec = Phase.Net then
        dur.(i) <-
          price_exec cfg cg ~t0 ~chip_offset:0.0 ~window:!window p.Phase.exec)
    phases;
  (phases, dur, !window)

(* ------------------------------------------------------------------ *)
(* scheduling *)

type schedule = {
  start : float array;
  finish : float array;
  exposed : float array;
  makespan : float;
  segs : segment list;
}

let serial_schedule (phases : Phase.t array) dur =
  let n = Array.length phases in
  let start = Array.make n 0.0 and finish = Array.make n 0.0 in
  let t = ref 0.0 in
  let segs = ref [] in
  for i = 0 to n - 1 do
    start.(i) <- !t;
    finish.(i) <- !t +. dur.(i);
    t := finish.(i);
    segs :=
      {
        seg_name = phases.(i).Phase.name;
        seg_row = phases.(i).Phase.row;
        seg_start = start.(i);
        seg_dur = dur.(i);
      }
      :: !segs
  done;
  { start; finish; exposed = Array.copy dur; makespan = !t;
    segs = List.rev !segs }

let overlap_schedule (phases : Phase.t array) dur =
  let n = Array.length phases in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (p : Phase.t) -> Hashtbl.replace index p.Phase.name i) phases;
  let res = Array.map (fun (p : Phase.t) -> Phase.resource_of p.Phase.exec) phases in
  let start = Array.make n 0.0 and finish = Array.make n 0.0 in
  let scheduled = Array.make n false in
  let lane_of i = match res.(i) with Phase.Chip -> 0 | Phase.Net -> 1 in
  let queue l =
    ref
      (List.filter (fun i -> lane_of i = l)
         (List.init n (fun i -> i)))
  in
  let chip_q = queue 0 and net_q = queue 1 in
  let avail = [| 0.0; 0.0 |] in
  (* chip idle gaps caused by waiting on a comm dependency:
     (comm phase index, gap start, gap length) *)
  let gaps = ref [] in
  let deps_of i =
    List.map (fun d -> Hashtbl.find index d) phases.(i).Phase.deps
  in
  let try_lane q lane progressed =
    match !q with
    | [] -> ()
    | i :: rest ->
        let deps = deps_of i in
        if List.for_all (fun d -> scheduled.(d)) deps then begin
          let dep_fin, cause =
            List.fold_left
              (fun (best, who) d ->
                if finish.(d) > best then (finish.(d), Some d) else (best, who))
              (0.0, None) deps
          in
          let s = Float.max avail.(lane) dep_fin in
          (match cause with
          | Some c
            when lane = 0 && res.(c) = Phase.Net && s > avail.(lane) ->
              gaps := (c, avail.(lane), s -. avail.(lane)) :: !gaps
          | _ -> ());
          start.(i) <- s;
          finish.(i) <- s +. dur.(i);
          scheduled.(i) <- true;
          avail.(lane) <- finish.(i);
          q := rest;
          progressed := true
        end
  in
  while !chip_q <> [] || !net_q <> [] do
    let progressed = ref false in
    try_lane chip_q 0 progressed;
    try_lane net_q 1 progressed;
    if not !progressed then
      invalid_arg "Swstep: dependency cycle across chip and network lanes"
  done;
  let chip_end = avail.(0) in
  let makespan = Float.max avail.(0) avail.(1) in
  (* accounting: chip phases keep their duration; a comm phase is
     charged the chip stalls it caused plus its part past chip end *)
  let exposed = Array.copy dur in
  Array.iteri (fun i r -> if r = Phase.Net then exposed.(i) <- 0.0) res;
  List.iter (fun (c, _, g) -> exposed.(c) <- exposed.(c) +. g) !gaps;
  let segs = ref [] in
  Array.iteri
    (fun i (p : Phase.t) ->
      if res.(i) = Phase.Chip then
        segs :=
          { seg_name = p.Phase.name; seg_row = p.Phase.row;
            seg_start = start.(i); seg_dur = dur.(i) }
          :: !segs)
    phases;
  List.iter
    (fun (c, gs, g) ->
      segs :=
        { seg_name = phases.(c).Phase.name; seg_row = phases.(c).Phase.row;
          seg_start = gs; seg_dur = g }
        :: !segs)
    !gaps;
  Array.iteri
    (fun i (p : Phase.t) ->
      if res.(i) = Phase.Net then begin
        let tail_start = Float.max chip_end start.(i) in
        let tail = finish.(i) -. tail_start in
        if tail > 0.0 then begin
          exposed.(i) <- exposed.(i) +. tail;
          segs :=
            { seg_name = p.Phase.name; seg_row = p.Phase.row;
              seg_start = tail_start; seg_dur = tail }
            :: !segs
        end
      end)
    phases;
  let segs =
    List.sort (fun a b -> Float.compare a.seg_start b.seg_start) !segs
  in
  { start; finish; exposed; makespan; segs }

let critical_path (phases : Phase.t array) dur =
  let n = Array.length phases in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (p : Phase.t) -> Hashtbl.replace index p.Phase.name i) phases;
  let memo = Array.make n Float.nan in
  let rec cp i =
    if Float.is_nan memo.(i) then begin
      let longest_dep =
        List.fold_left
          (fun best d -> Float.max best (cp (Hashtbl.find index d)))
          0.0 phases.(i).Phase.deps
      in
      memo.(i) <- dur.(i) +. longest_dep
    end;
    memo.(i)
  in
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    best := Float.max !best (cp i)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* the public entry point *)

(** [run ?mode ~cfg ~cg ~t0 step] validates, prices and schedules the
    step.  [cg] hosts the [Simulated] executors; [t0] is the step's
    position on the simulated-time axis (used only to park the trace
    cursor for [Simulated] phases — the result's times are relative to
    the step start). *)
let run ?(mode = Serial) ~cfg ~cg ~t0 (step : Phase.step) =
  Phase.validate step;
  let phases, dur, window = price ~cfg ~cg ~t0 step in
  let sched =
    match mode with
    | Serial -> serial_schedule phases dur
    | Overlap -> overlap_schedule phases dur
  in
  let rows =
    List.map
      (fun row ->
        let t = ref 0.0 in
        Array.iteri
          (fun i (p : Phase.t) ->
            if p.Phase.row = row then t := !t +. sched.exposed.(i))
          phases;
        (row, !t))
      step.Phase.rows
  in
  let comm_total = ref 0.0 and comm_exposed = ref 0.0 in
  Array.iteri
    (fun i (p : Phase.t) ->
      if Phase.resource_of p.Phase.exec = Phase.Net then begin
        comm_total := !comm_total +. dur.(i);
        comm_exposed := !comm_exposed +. sched.exposed.(i)
      end)
    phases;
  let priced =
    Array.to_list
      (Array.mapi
         (fun i (p : Phase.t) ->
           {
             phase = p;
             resource = Phase.resource_of p.Phase.exec;
             duration = dur.(i);
             start = sched.start.(i);
             finish = sched.finish.(i);
             exposed = sched.exposed.(i);
           })
         phases)
  in
  {
    label = step.Phase.label;
    mode;
    phases = priced;
    rows;
    total = sched.makespan;
    critical_path = critical_path phases dur;
    compute_window = window;
    comm_total = !comm_total;
    comm_hidden = !comm_total -. !comm_exposed;
    segments = sched.segs;
  }

(** [total r] is the step makespan (also the sum of [r.rows]). *)
let total r = r.total

(** [row r label] looks one Table-1 row up (0 when absent). *)
let row r label =
  match List.assoc_opt label r.rows with Some t -> t | None -> 0.0

(* ------------------------------------------------------------------ *)
(* derived trace timeline *)

(** [emit ?args ?row_names r ~t0] lays the scheduled step down on the
    trace: the MPE track gets the phase timeline (consecutive segments
    of the same row merged into one span, named by [row_names] when
    given), the network track one span per communication phase at its
    scheduled start, plus the enclosing ["step:<label>"] span; both
    cursors are parked at the step end. *)
let emit ?(args = []) ?(row_names = []) r ~t0 =
  let module T = Swtrace.Trace in
  if T.enabled () then begin
    let name_of row fallback =
      match List.assoc_opt row row_names with Some n -> n | None -> fallback
    in
    (* merge consecutive same-row segments into one phase span *)
    let groups =
      List.rev
        (List.fold_left
           (fun acc s ->
             match acc with
             | (row, nm, st, d) :: rest when row = s.seg_row ->
                 (row, nm, st, d +. s.seg_dur) :: rest
             | _ -> (s.seg_row, s.seg_name, s.seg_start, s.seg_dur) :: acc)
           [] r.segments)
    in
    List.iter
      (fun (row, nm, st, d) ->
        if d > 0.0 then
          T.span ~cat:"phase" Swtrace.Track.Mpe (name_of row nm) ~t:(t0 +. st)
            ~dur:d)
      groups;
    List.iter
      (fun p ->
        if p.resource = Phase.Net && p.duration > 0.0 then
          T.span ~cat:"comm" Swtrace.Track.Net p.phase.Phase.name
            ~t:(t0 +. p.start) ~dur:p.duration)
      r.phases;
    T.span ~cat:"step" Swtrace.Track.Mpe ("step:" ^ r.label) ~t:t0 ~dur:r.total
      ~args;
    T.set_now Swtrace.Track.Mpe (t0 +. r.total);
    T.set_now Swtrace.Track.Net (t0 +. r.total)
  end
