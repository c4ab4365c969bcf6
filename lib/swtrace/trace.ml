(** The global trace recorder.

    One process-wide recorder keeps a per-track ring buffer, a
    per-track simulated-time cursor and a per-track span stack.  Every
    recording entry point first tests the global enable flag, so when
    tracing is off the whole subsystem costs one load-and-branch per
    call site and allocates nothing — instrumentation can stay in hot
    simulator paths permanently.

    Timestamps are simulated seconds.  The cursor of a track is "now"
    for that lane; [span_here] advances it, so sequential phases laid
    down with [span_here] tile the timeline without the caller doing
    clock arithmetic. *)

type state = {
  mutable enabled : bool;
  mutable rings : Event.t Ring.t array;  (** one per track when enabled *)
  mutable cursors : float array;  (** per-track simulated time, seconds *)
  mutable stacks : (string * string * float) list array;
      (** open spans per track: (name, cat, start) *)
  mutable capacity : int;  (** per-track ring capacity when enabled *)
}

(* The ambient track index is {e domain-local}: when the swpar pool
   shards the CPE mesh across domains, each domain runs [with_track]
   for the CPEs of its own stripe, and the stripes own disjoint tracks
   — so the per-track rings, cursors and span stacks above need no
   locking as long as the ambient index itself is not shared. *)
let current_key = Domain.DLS.new_key (fun () -> 0)
let current () = Domain.DLS.get current_key
let set_current i = Domain.DLS.set current_key i

(** Default per-track ring capacity (events); 2^16, a buffer-size
    choice of the tracer, not a property of the machine. *)
let default_capacity = 1 lsl 16

let st =
  {
    enabled = false;
    rings = [||];
    cursors = Array.make (Track.count ()) 0.0;
    stacks = Array.make (Track.count ()) [];
    capacity = default_capacity;
  }

(* The track geometry follows the platform's CPE count
   ({!Track.set_cpe_tracks}).  When it changes, re-size the per-track
   state, carrying cursors, open-span stacks and recorded events over
   by track identity (events store their [Track.t], so only the dense
   index layout changes). *)
let track_of_old_index ~old_cpe i =
  if i = 0 then Track.Mpe
  else if i >= 1 && i <= old_cpe then Track.Cpe (i - 1)
  else if i = old_cpe + 1 then Track.Net
  else Track.Fault

let resize () =
  let old_count = Array.length st.cursors in
  let new_count = Track.count () in
  if new_count <> old_count then begin
    let old_cpe = old_count - 3 in
    let cursors = Array.make new_count 0.0 in
    let stacks = Array.make new_count [] in
    let current_track = track_of_old_index ~old_cpe (current ()) in
    for i = 0 to old_count - 1 do
      let tr = track_of_old_index ~old_cpe i in
      match Track.index tr with
      | j ->
          cursors.(j) <- st.cursors.(i);
          stacks.(j) <- st.stacks.(i)
      | exception Invalid_argument _ -> ()  (* lane dropped by a shrink *)
    done;
    let old_rings = st.rings in
    st.cursors <- cursors;
    st.stacks <- stacks;
    set_current (try Track.index current_track with Invalid_argument _ -> 0);
    if Array.length old_rings > 0 then begin
      st.rings <-
        Array.init new_count (fun _ ->
            Ring.create ~capacity:st.capacity ~dummy:Event.null);
      Array.iter
        (fun r ->
          List.iter
            (fun ev ->
              match Track.index ev.Event.track with
              | j -> Ring.push st.rings.(j) ev
              | exception Invalid_argument _ -> ())
            (Ring.to_list r))
        old_rings
    end
  end

let () = Track.on_resize resize

(** [enabled ()] is the one branch paid on the disabled path. *)
let enabled () = st.enabled

let reset_state () =
  Array.fill st.cursors 0 (Array.length st.cursors) 0.0;
  Array.fill st.stacks 0 (Array.length st.stacks) [];
  set_current 0

(** [enable ?capacity ()] clears any previous trace and starts
    recording, with at most [capacity] events retained per track. *)
let enable ?(capacity = default_capacity) () =
  st.capacity <- capacity;
  st.rings <-
    Array.init (Track.count ()) (fun _ ->
        Ring.create ~capacity ~dummy:Event.null);
  reset_state ();
  st.enabled <- true

(** [disable ()] stops recording; already-recorded events remain
    readable through {!events}. *)
let disable () = st.enabled <- false

(** [clear ()] drops all recorded events and resets clocks. *)
let clear () =
  Array.iter
    (fun (r : Event.t Ring.t) ->
      r.Ring.start <- 0;
      r.Ring.len <- 0;
      r.Ring.dropped <- 0)
    st.rings;
  reset_state ()

(* --- clocks and ambient track -------------------------------------- *)

(** [now tr] is the cursor of [tr] (0. when tracing never ran). *)
let now tr = st.cursors.(Track.index tr)

(** [set_now tr t] moves the cursor of [tr] to [t]. *)
let set_now tr t = if st.enabled then st.cursors.(Track.index tr) <- t

(** [advance tr dt] moves the cursor of [tr] forward by [dt]. *)
let advance tr dt =
  if st.enabled then begin
    let i = Track.index tr in
    st.cursors.(i) <- st.cursors.(i) +. dt
  end

(** [current_track ()] is the ambient track charged by context-free
    emitters ({!Dma}-style instrumentation deep in the simulator). *)
let current_track () = Track.of_index (current ())

(** [with_track tr f] runs [f] with [tr] as the ambient track {e of the
    calling domain}.  The core-group scheduler uses this to attribute
    scratchpad and DMA events to the CPE whose slice is executing; when
    slices run on pool domains, each domain carries its own ambient
    index, so concurrent stripes never touch each other's tracks. *)
let with_track tr f =
  if not st.enabled then f ()
  else begin
    let saved = current () in
    set_current (Track.index tr);
    Fun.protect ~finally:(fun () -> set_current saved) f
  end

(* --- recording ------------------------------------------------------ *)

let record ev = Ring.push st.rings.(Track.index ev.Event.track) ev

(** [span ?cat ?args tr name ~t ~dur] records a completed interval at
    an explicit position; cursors are untouched. *)
let span ?(cat = "") ?(args = []) tr name ~t ~dur =
  if st.enabled then
    record
      { Event.kind = Span; track = tr; name; cat; t; dur; value = 0.0; args }

(** [span_here ?cat ?args tr name ~dur] records an interval starting at
    the track cursor and advances the cursor past it. *)
let span_here ?cat ?args tr name ~dur =
  if st.enabled then begin
    let i = Track.index tr in
    let t = st.cursors.(i) in
    span ?cat ?args tr name ~t ~dur;
    st.cursors.(i) <- t +. dur
  end

(** [instant ?cat ?args tr name] records a point event at the cursor. *)
let instant ?(cat = "") ?(args = []) tr name =
  if st.enabled then
    record
      {
        Event.kind = Instant;
        track = tr;
        name;
        cat;
        t = st.cursors.(Track.index tr);
        dur = 0.0;
        value = 0.0;
        args;
      }

(** [counter ?cat tr name v] samples a counter value at the cursor. *)
let counter ?(cat = "counter") tr name v =
  if st.enabled then
    record
      {
        Event.kind = Counter;
        track = tr;
        name;
        cat;
        t = st.cursors.(Track.index tr);
        dur = 0.0;
        value = v;
        args = [];
      }

(** [counter_here ?cat name v] samples a counter on the ambient track. *)
let counter_here ?cat name v =
  if st.enabled then counter ?cat (Track.of_index (current ())) name v

(** [dma_transfer ~bytes ~time] records one DMA transfer on the ambient
    track; the size/duration payload feeds the bandwidth histogram
    ({!Analysis.dma_histogram}). *)
let dma_transfer ~bytes ~time =
  if st.enabled then
    record
      {
        Event.kind = Instant;
        track = Track.of_index (current ());
        name = "dma";
        cat = "dma";
        t = st.cursors.(current ());
        dur = 0.0;
        value = 0.0;
        args = [ ("bytes", float_of_int bytes); ("dur", time) ];
      }

(* --- nested spans ---------------------------------------------------- *)

(** [push ?cat tr name] opens a span at the track cursor. *)
let push ?(cat = "") tr name =
  if st.enabled then begin
    let i = Track.index tr in
    st.stacks.(i) <- (name, cat, st.cursors.(i)) :: st.stacks.(i)
  end

(** [pop ?args tr] closes the innermost open span of [tr] at the track
    cursor; a [pop] with no matching [push] is ignored. *)
let pop ?args tr =
  if st.enabled then begin
    let i = Track.index tr in
    match st.stacks.(i) with
    | [] -> ()
    | (name, cat, t0) :: rest ->
        st.stacks.(i) <- rest;
        span ~cat ?args tr name ~t:t0 ~dur:(st.cursors.(i) -. t0)
  end

(** [with_span ?cat tr name f] runs [f] inside a [push]/[pop] pair;
    the span closes even if [f] raises. *)
let with_span ?cat tr name f =
  if not st.enabled then f ()
  else begin
    push ?cat tr name;
    Fun.protect ~finally:(fun () -> pop tr) f
  end

(** [depth tr] is the number of open spans on [tr] (testing hook). *)
let depth tr = List.length st.stacks.(Track.index tr)

(* --- reading back ---------------------------------------------------- *)

(** [events ()] is every retained event, time-sorted (stable within a
    timestamp, so nesting order is preserved). *)
let events () =
  if Array.length st.rings = 0 then []
  else begin
    let all = ref [] in
    for i = Array.length st.rings - 1 downto 0 do
      all := List.rev_append (List.rev (Ring.to_list st.rings.(i))) !all
    done;
    List.stable_sort (fun a b -> Float.compare a.Event.t b.Event.t) !all
  end

(** [dropped ()] is the number of events lost to ring overflow. *)
let dropped () =
  Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 st.rings

(** [event_count ()] is the number of retained events. *)
let event_count () =
  Array.fold_left (fun acc r -> acc + Ring.length r) 0 st.rings
