(** DMA engine model.

    CPEs reach main memory efficiently only through DMA, and the
    achievable bandwidth depends strongly on the transfer size
    (Table 2 of the paper).  The model interpolates the measured curve
    piecewise-linearly in transfer size and charges the resulting bus
    time to the issuing element's {!Cost.t}. *)

(** [bandwidth cfg size] is the modelled DMA bandwidth in bytes/second
    for a transfer of [size] bytes. *)
val bandwidth : Config.t -> int -> float

(** [transfer_time cfg size] is the bus time in seconds of one DMA
    transfer of [size] bytes. *)
val transfer_time : Config.t -> int -> float

(** Transfer direction, reported to the {!observer}. *)
type direction = Read | Write

(** Observation hook for schedulers: when set, every charged transfer
    is reported with its direction, size and bus time.  The swsched
    recorder installs itself here while recording a kernel, so DMA
    issued anywhere below it (kernels, software caches, reduction) is
    captured without threading a recorder through every call site.
    Charging is unaffected; the hook only observes.

    The hook is {e domain-local} ([Domain.DLS]): each swpar stripe
    records into its own shard recorder, so an observer installed on
    one domain never sees transfers charged by another. *)
val observer : unit -> (direction -> bytes:int -> time:float -> unit) option

(** [set_observer f] installs (or, with [None], removes) the calling
    domain's observation hook. *)
val set_observer : (direction -> bytes:int -> time:float -> unit) option -> unit

(** [get ?aligned cfg cost ~bytes] charges one DMA read of [bytes]
    from main memory to [cost].  Transfers not 128-bit aligned pay a
    head/tail fix-up transaction (Section 3.7). *)
val get : ?aligned:bool -> Config.t -> Cost.t -> bytes:int -> unit

(** [put ?aligned cfg cost ~bytes] charges one DMA write of [bytes] to
    main memory to [cost].  Reads and writes share the bus model. *)
val put : ?aligned:bool -> Config.t -> Cost.t -> bytes:int -> unit

(** [saturating_bytes cfg] is the smallest transfer size at which the
    modelled curve reaches its plateau — the last measured point (2 KB
    on the SW26010).  Staging buffers that flush at this granule get
    peak bandwidth without hand-rolling a size literal. *)
val saturating_bytes : Config.t -> int
