(** DMA engine model.

    CPEs reach main memory efficiently only through DMA, and the
    achievable bandwidth depends strongly on the transfer size
    (Table 2 of the paper: 8 B transfers see under 1 GB/s while 2 KB
    transfers reach the ~30 GB/s peak).  The model interpolates the
    measured curve piecewise-linearly in transfer size and charges the
    resulting bus time to the issuing element's {!Cost.t}. *)

(** [bandwidth cfg size] is the modelled DMA bandwidth in bytes/second
    for a transfer of [size] bytes.  Sizes below the first measured
    point scale linearly (latency bound); sizes above the last point
    stay at the plateau. *)
let bandwidth (cfg : Config.t) size =
  let pts = cfg.dma_points in
  let n = Array.length pts in
  if n = 0 then invalid_arg "Dma.bandwidth: empty curve";
  if size <= 0 then invalid_arg "Dma.bandwidth: size must be positive";
  let s0, bw0 = pts.(0) in
  let sn, bwn = pts.(n - 1) in
  if size <= s0 then bw0 *. float_of_int size /. float_of_int s0
  else if size >= sn then bwn
  else begin
    (* find the bracketing segment *)
    let rec seg i =
      let s1, _ = pts.(i) in
      if size <= s1 then i else seg (i + 1)
    in
    let i = seg 1 in
    let sa, ba = pts.(i - 1) and sb, bb = pts.(i) in
    let f = float_of_int (size - sa) /. float_of_int (sb - sa) in
    ba +. (f *. (bb -. ba))
  end

(** [transfer_time cfg size] is the bus time in seconds of one DMA
    transfer of [size] bytes. *)
let transfer_time cfg size = float_of_int size /. bandwidth cfg size

(** Transfer direction, reported to the {!observer}. *)
type direction = Read | Write

(** Observation hook for schedulers: when set, every charged transfer
    is reported with its direction, size and bus time.  The swsched
    recorder installs itself here while replaying a kernel, so DMA
    issued anywhere below it (kernels, software caches, reduction) is
    captured without threading a recorder through every call site.

    The hook is {e domain-local}: each swpar stripe records into its
    own shard recorder, so an observer installed on one domain must
    never see transfers charged by another. *)
let observer_key :
    (direction -> bytes:int -> time:float -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let observer () = Domain.DLS.get observer_key
let set_observer f = Domain.DLS.set observer_key f

let transfer dir ?(aligned = true) cfg (cost : Cost.t) ~bytes =
  if bytes > 0 then begin
    let t = transfer_time cfg bytes in
    let t = if aligned then t else t +. transfer_time cfg (min bytes 64) in
    cost.dma_time_s <- cost.dma_time_s +. t;
    cost.dma_bytes <- cost.dma_bytes +. float_of_int bytes;
    cost.dma_transactions <- cost.dma_transactions +. 1.0;
    (match observer () with Some f -> f dir ~bytes ~time:t | None -> ());
    if Swtrace.Trace.enabled () then Swtrace.Trace.dma_transfer ~bytes ~time:t
  end

(** [get ?aligned cfg cost ~bytes] charges one DMA read of [bytes]
    from main memory to [cost].  Transfers not aligned to 128 bits pay
    a head/tail fix-up transaction (Section 3.7: "if the data address
    is in the alignment of 128 bit, the memory access tends to be more
    efficient"); all shipped kernels allocate aligned. *)
let get ?aligned cfg cost ~bytes = transfer Read ?aligned cfg cost ~bytes

(** [put ?aligned cfg cost ~bytes] charges one DMA write of [bytes] to
    main memory to [cost].  Reads and writes share the bus model. *)
let put ?aligned cfg cost ~bytes = transfer Write ?aligned cfg cost ~bytes

(** [saturating_bytes cfg] is the smallest transfer size at which the
    modelled curve reaches its plateau — the last measured point
    (2 KB on the SW26010).  Staging buffers that flush at this granule
    get peak bandwidth without hand-rolling a size literal. *)
let saturating_bytes (cfg : Config.t) =
  let pts = cfg.dma_points in
  if Array.length pts = 0 then invalid_arg "Dma.saturating_bytes: empty curve";
  fst pts.(Array.length pts - 1)
