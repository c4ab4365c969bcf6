(** Asynchronous DMA engine over the event queue: bounded in-flight
    request slots plus a processor-sharing bus that degrades the
    Table-2 bandwidth when the channels saturate. *)

type t

(** [create ?channels ?slots ?faults ?on_fault sim cfg] is an idle
    engine attached to [sim].  [channels] is the number of concurrent
    full-rate Table-2 streams the bus sustains (default
    [cfg.dma_channels]); [slots] bounds the transfers in service at
    once (default 4), with further requests waiting in a FIFO backlog.
    With [faults], completed service rounds may be struck by a DMA
    transfer error and re-enter the queue after an exponential backoff
    (raising {!Swfault.Error.Fault} once the plan's retry budget is
    exhausted); [on_fault name ~id ~t ~dur] reports each
    injection/retry/recovery event. *)
val create :
  ?channels:float ->
  ?slots:int ->
  ?faults:Swfault.Injector.t ->
  ?on_fault:(string -> id:int -> t:float -> dur:float -> unit) ->
  Sim.t ->
  Swarch.Config.t ->
  t

(** [issue t ~bytes ~demand ~on_complete] submits one transfer at the
    current simulated instant.  [demand] is the transfer's full-rate
    bus time in seconds (as charged by {!Swarch.Dma});
    [on_complete] fires with the simulated completion time once the
    shared bus has served the demand. *)
val issue : t -> bytes:int -> demand:float -> on_complete:(float -> unit) -> unit

(** Total transfers issued. *)
val requests : t -> int

(** Total bytes moved. *)
val bytes_moved : t -> float

(** Simulated time with at least one transfer in flight. *)
val busy_seconds : t -> float

(** Busy time during which the bus was saturated (more transfers in
    flight than [channels]). *)
val contended_seconds : t -> float

(** Total time requests spent beyond their full-rate service time
    (backlog queueing plus contention slowdown). *)
val queue_wait_seconds : t -> float

(** Highest number of transfers simultaneously in service. *)
val peak_in_flight : t -> int

(** Transfer errors retried after a backoff. *)
val retries : t -> int
