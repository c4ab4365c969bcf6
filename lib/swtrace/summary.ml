(** Text sinks: the flame/phase summary and the roofline report.

    Everything prints from the recorded event list, so the same run can
    emit both the Chrome JSON file and this terminal summary. *)

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

(** [phase_summary ppf events] prints per-phase totals (category
    "phase" spans), with each phase's share of the summed step time. *)
let phase_summary ppf events =
  let ph = Analysis.phases events in
  let steps = Analysis.phases ~cat:"step" events in
  let step_total = List.fold_left (fun a p -> a +. p.Analysis.total) 0.0 steps in
  (match steps with
  | [] -> ()
  | _ ->
      let n = List.fold_left (fun a p -> a + p.Analysis.count) 0 steps in
      Fmt.pf ppf "steps traced: %d, %.4e s simulated total@." n step_total);
  if ph = [] then Fmt.pf ppf "no phase spans recorded@."
  else begin
    Fmt.pf ppf "%-16s %8s %14s %14s %7s@." "phase" "count" "total (s)"
      "mean (s)" "share";
    let whole =
      if step_total > 0.0 then step_total
      else List.fold_left (fun a p -> a +. p.Analysis.total) 0.0 ph
    in
    List.iter
      (fun (p : Analysis.phase_stats) ->
        Fmt.pf ppf "%-16s %8d %14.4e %14.4e %6.1f%%@." p.Analysis.phase
          p.Analysis.count p.Analysis.total p.Analysis.mean
          (pct p.Analysis.total whole))
      ph
  end

(** [utilization_summary ppf events] prints the CPE busy-time spread:
    min / mean / max fraction plus the slowest and laziest lanes. *)
let utilization_summary ppf events =
  let util = Analysis.utilization events in
  let active =
    List.filter (fun u -> u.Analysis.busy > 0.0) util
  in
  if active = [] then ()
  else begin
    let fracs = List.map (fun u -> u.Analysis.fraction) active in
    let mn = List.fold_left Float.min infinity fracs in
    let mx = List.fold_left Float.max 0.0 fracs in
    let mean =
      List.fold_left ( +. ) 0.0 fracs /. float_of_int (List.length fracs)
    in
    Fmt.pf ppf
      "CPE utilization: %d active lanes, busy fraction min %.1f%% mean \
       %.1f%% max %.1f%%@."
      (List.length active) (100.0 *. mn) (100.0 *. mean) (100.0 *. mx)
  end

(** [dma_summary ppf events] prints the bandwidth-vs-size histogram so
    a run can be checked against the Table 2 curve at a glance. *)
let dma_summary ppf events =
  match Analysis.dma_histogram events with
  | [] -> ()
  | buckets ->
      Fmt.pf ppf "%-14s %10s %12s %12s@." "DMA size (B)" "transfers"
        "bytes" "GB/s";
      List.iter
        (fun (b : Analysis.dma_bucket) ->
          let label =
            if b.Analysis.hi = max_int then Printf.sprintf "> %d" (b.Analysis.lo - 1)
            else Printf.sprintf "%d-%d" b.Analysis.lo b.Analysis.hi
          in
          Fmt.pf ppf "%-14s %10d %12.3e %12.2f@." label b.Analysis.transfers
            b.Analysis.bytes
            (Analysis.bucket_bw b /. 1e9))
        buckets

(** [roofline_summary ?peak_flops ?peak_bw ppf events] prints per-kernel
    operational intensity and attained rates; when the machine peaks
    are supplied each kernel also shows its percentage of roofline. *)
let roofline_summary ?peak_flops ?peak_bw ppf events =
  match Analysis.roofline events with
  | [] -> Fmt.pf ppf "no kernel spans recorded@."
  | kernels ->
      Fmt.pf ppf "%-16s %6s %12s %12s %10s %10s %10s@." "kernel" "calls"
        "time (s)" "flops" "flop/B" "Gflop/s" "DMA GB/s";
      List.iter
        (fun (k : Analysis.kernel_stats) ->
          let oi = Analysis.intensity k in
          let gf = Analysis.attained_flops k /. 1e9 in
          let bw =
            if k.Analysis.dma_time > 0.0 then
              k.Analysis.dma_bytes /. k.Analysis.dma_time /. 1e9
            else 0.0
          in
          Fmt.pf ppf "%-16s %6d %12.4e %12.4e %10.2f %10.2f %10.2f@."
            k.Analysis.name k.Analysis.calls k.Analysis.time k.Analysis.flops
            (if Float.is_finite oi then oi else Float.nan)
            gf bw;
          match (peak_flops, peak_bw) with
          | Some pf, Some pb when pf > 0.0 && pb > 0.0 ->
              let roof = Float.min pf (oi *. pb) in
              if Float.is_finite roof && roof > 0.0 then
                Fmt.pf ppf "%-16s %6s bound: %.1f%% of %s roof (%.2f Gflop/s)@."
                  "" ""
                  (pct (Analysis.attained_flops k) roof)
                  (if pf <= oi *. pb then "compute" else "memory")
                  (roof /. 1e9)
          | _ -> ())
        kernels

(** [print ?platform ?peak_flops ?peak_bw ppf events] is the full text
    report; [platform] is a pre-rendered machine label (name + lane
    width), printed first so a summary is self-describing. *)
let print ?platform ?peak_flops ?peak_bw ppf events =
  (match platform with
  | Some label -> Fmt.pf ppf "@.platform: %s@." label
  | None -> ());
  Fmt.pf ppf "@.--- trace summary: phases ---@.";
  phase_summary ppf events;
  Fmt.pf ppf "@.--- trace summary: CPE utilization ---@.";
  utilization_summary ppf events;
  Fmt.pf ppf "@.--- trace summary: DMA bandwidth by transfer size ---@.";
  dma_summary ppf events;
  Fmt.pf ppf "@.--- trace summary: kernel roofline ---@.";
  roofline_summary ?peak_flops ?peak_bw ppf events
