(** Timeline tracks of the simulated Sunway stack.

    A track is one horizontal lane of the trace: the management core,
    one of the compute elements, or the interconnect.  Tracks map
    one-to-one onto Chrome trace_event thread ids, so a trace loaded in
    Perfetto shows the MPE, every CPE and the network as separate
    rows.

    How many CPE lanes exist is a property of the machine being
    simulated, so the count is not baked in here: the architecture
    layer pushes it down via {!set_cpe_tracks} when it instantiates a
    core group (64 on the SW26010).  Layers that size per-track state
    register a {!on_resize} hook to follow the geometry. *)

type t =
  | Mpe  (** the management processing element *)
  | Cpe of int  (** compute element of the core group *)
  | Net  (** the interconnect: halo, PME transpose, collectives *)
  | Fault  (** fault injections and recoveries (swfault) *)

(* The CPE lane count starts at a 1-lane placeholder; the first
   core-group instantiation replaces it with the platform's CPE count
   before any per-CPE event can be recorded. *)
let cpe_track_count = ref 1

let resize_hooks : (unit -> unit) list ref = ref []

(** [on_resize f] registers [f] to run whenever the CPE lane count
    changes (used by {!Trace} to re-size its per-track state). *)
let on_resize f = resize_hooks := f :: !resize_hooks

(** [cpe_tracks ()] is the current number of CPE lanes; matches the
    core-group geometry of the active platform. *)
let cpe_tracks () = !cpe_track_count

(* No caller instantiates core groups from two domains at once today,
   but the geometry check-and-resize stays atomic so that one may; the
   fast path (count unchanged, which is every call after the first per
   platform) still takes the lock, but only for one comparison. *)
let resize_mutex = Mutex.create ()

(** [set_cpe_tracks n] installs the CPE lane count of the machine being
    simulated.  Idempotent when [n] is unchanged; serialized, so
    concurrent instantiations of the same geometry are safe. *)
let set_cpe_tracks n =
  if n <= 0 then invalid_arg "Track.set_cpe_tracks: count must be positive";
  Mutex.protect resize_mutex (fun () ->
      if n <> !cpe_track_count then begin
        cpe_track_count := n;
        List.iter (fun f -> f ()) !resize_hooks
      end)

(** [count ()] is the total number of tracks. *)
let count () = !cpe_track_count + 3

(** [index t] is the dense track index, also used as the trace tid:
    MPE first, then the CPE mesh, the network last. *)
let index = function
  | Mpe -> 0
  | Cpe i ->
      if i < 0 || i >= !cpe_track_count then
        invalid_arg "Track.index: CPE id out of range";
      1 + i
  | Net -> !cpe_track_count + 1
  | Fault -> !cpe_track_count + 2

(** [of_index i] inverts {!index}. *)
let of_index i =
  let cpe = !cpe_track_count in
  if i = 0 then Mpe
  else if i >= 1 && i <= cpe then Cpe (i - 1)
  else if i = cpe + 1 then Net
  else if i = cpe + 2 then Fault
  else invalid_arg "Track.of_index"

(** [name t] is the human-readable lane label shown by trace viewers. *)
let name = function
  | Mpe -> "MPE"
  | Cpe i -> Printf.sprintf "CPE %02d" i
  | Net -> "network"
  | Fault -> "fault"
