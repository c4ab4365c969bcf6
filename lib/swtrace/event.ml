(** One trace event.

    Timestamps and durations are {e simulated} seconds — the clock the
    cost model charges — never wall time, so traces are deterministic
    and comparable across machines. *)

type kind =
  | Span  (** a named interval: [t .. t +. dur] *)
  | Counter  (** a sampled value at [t] *)
  | Instant  (** a point event at [t] (e.g. one DMA transfer) *)

type t = {
  kind : kind;
  track : Track.t;
  name : string;
  cat : string;  (** category: "phase", "kernel", "comm", "dma", ... *)
  t : float;  (** simulated start time, seconds *)
  dur : float;  (** duration in seconds; [Span] only *)
  value : float;  (** sampled value; [Counter] only *)
  args : (string * float) list;  (** free-form numeric payload *)
}

(** Placeholder used to pre-fill ring buffers. *)
let null =
  {
    kind = Instant;
    track = Track.Mpe;
    name = "";
    cat = "";
    t = 0.0;
    dur = 0.0;
    value = 0.0;
    args = [];
  }

(** [end_time e] is [e.t +. e.dur]. *)
let end_time e = e.t +. e.dur

(** [arg e key] looks a payload value up, [0.] if absent. *)
let arg e key =
  match List.assoc_opt key e.args with Some v -> v | None -> 0.0
