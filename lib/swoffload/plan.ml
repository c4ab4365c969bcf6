(** LDM tiling plans.

    A kernel does not size its scratchpad by hand: it declares a
    working set — which buffers stream through the LDM per work item,
    how many double-buffer slots the DMA pipeline rotates, and how
    many bytes stay resident for the whole slice — and the plan
    derives the tile shape against the platform's LDM budget.  The
    derivation is the single audited place where tile sizes and
    buffer counts come from; `test/lint_constants.ml` bans hand-rolled
    LDM arithmetic everywhere else.

    A plan that cannot fit even one slot of one tile in the budget is
    a structured {!error}, never a silent truncation: an oversized
    working set must fail loudly at derivation time, before any DMA
    descriptor is issued. *)

(** How the kernel uses a streamed buffer.  The intent does not change
    the LDM footprint — one tile-sized block either way — but it is
    part of the declared contract (read buffers are fetched, write
    buffers are put back, accumulate buffers are fetched, updated and
    put back) and documents the DMA direction the driver charges. *)
type intent = Read | Write | Accumulate

(** One streamed buffer of the working set: [item_bytes] LDM bytes per
    work item, replicated across the plan's double-buffer slots. *)
type buffer = { name : string; intent : intent; item_bytes : int }

(** Tile shape request: a fixed item count, or [Auto] for the largest
    tile the budget admits. *)
type shape = Items of int | Auto

(** The declared working set. [resident_bytes] covers per-slice blocks
    whose size is independent of the tile (register spill areas, local
    accumulators); they are allocated once, outside the slot rotation. *)
type spec = {
  kernel : string;  (** name, for traces and errors *)
  buffers : buffer list;
  resident_bytes : int;
  tile : shape;
  slots : int;  (** double-buffer depth of the streamed tiles *)
}

type error =
  | Ldm_overflow of {
      kernel : string;
      needed : int;  (** bytes the smallest valid configuration needs *)
      budget : int;  (** the platform's LDM budget *)
      tile_items : int;  (** the tile size that was requested/attempted *)
    }
  | Bad_spec of { kernel : string; reason : string }

exception Plan_error of error

let error_to_string = function
  | Ldm_overflow { kernel; needed; budget; tile_items } ->
      Printf.sprintf
        "offload plan %S: working set needs %d B of LDM for a %d-item tile \
         but the platform budget is %d B"
        kernel needed tile_items budget
  | Bad_spec { kernel; reason } ->
      Printf.sprintf "offload plan %S: %s" kernel reason

let () =
  Printexc.register_printer (function
    | Plan_error e -> Some (error_to_string e)
    | _ -> None)

(** A derived plan: the tile shape, the tile count over the work list
    (the last tile is the remainder tile when the item count does not
    divide evenly) and the audited LDM footprint. *)
type t = {
  spec : spec;
  n_items : int;
  tile_items : int;  (** items per full tile *)
  n_tiles : int;
  remainder : int;  (** items in the last tile; 0 when tiles divide evenly *)
  item_bytes : int;  (** streamed bytes per item, summed over buffers *)
  tile_bytes : int;  (** streamed bytes of one full tile *)
  ldm_budget : int;
}

(** One concrete tile of the work list. *)
type tile = { index : int; start : int; items : int }

(** The depth hand-tiled kernels used to hardcode; the one place the
    literal lives. *)
let default_slots = 2

let bad kernel reason = Error (Bad_spec { kernel; reason })

(** [derive spec ~cfg ~n_items] resolves the tile shape against
    [cfg]'s LDM budget.  The footprint charged against the budget is
    [slots] streamed tiles plus the resident block — exactly what
    {!reserve} will allocate for a recorded (double-buffered) run, so
    a plan that validates here cannot overflow at run time. *)
let derive spec ~(cfg : Swarch.Config.t) ~n_items =
  let kernel = spec.kernel in
  if spec.slots < 1 then bad kernel "slots < 1"
  else if n_items < 0 then bad kernel "negative item count"
  else if spec.resident_bytes < 0 then bad kernel "negative resident bytes"
  else if List.exists (fun (b : buffer) -> b.item_bytes <= 0) spec.buffers then
    bad kernel "streamed buffer with non-positive item bytes"
  else if spec.buffers = [] then bad kernel "no streamed buffers declared"
  else
    let item_bytes =
      List.fold_left (fun a (b : buffer) -> a + b.item_bytes) 0 spec.buffers
    in
    let budget = cfg.Swarch.Config.ldm_bytes in
    let fits tile_items =
      (spec.slots * tile_items * item_bytes) + spec.resident_bytes <= budget
    in
    let tile_result =
      match spec.tile with
      | Items k when k < 1 -> bad kernel "tile of less than one item"
      | Items k ->
          if fits k then Ok k
          else
            Error
              (Ldm_overflow
                 {
                   kernel;
                   needed = (spec.slots * k * item_bytes) + spec.resident_bytes;
                   budget;
                   tile_items = k;
                 })
      | Auto ->
          (* largest tile the budget admits, capped at the work list so
             a small working set gets a single tight tile *)
          let avail = budget - spec.resident_bytes in
          let max_items = avail / (spec.slots * item_bytes) in
          if max_items < 1 then
            Error
              (Ldm_overflow
                 {
                   kernel;
                   needed = (spec.slots * item_bytes) + spec.resident_bytes;
                   budget;
                   tile_items = 1;
                 })
          else Ok (max 1 (min max_items (max 1 n_items)))
    in
    match tile_result with
    | Error e -> Error e
    | Ok tile_items ->
        let n_tiles = (n_items + tile_items - 1) / tile_items in
        let remainder = n_items mod tile_items in
        Ok
          {
            spec;
            n_items;
            tile_items;
            n_tiles;
            remainder;
            item_bytes;
            tile_bytes = tile_items * item_bytes;
            ldm_budget = budget;
          }

let derive_exn spec ~cfg ~n_items =
  match derive spec ~cfg ~n_items with
  | Ok t -> t
  | Error e -> raise (Plan_error e)

(** [reserve t ~recorded] is the LDM block the driver allocates per
    CPE slice: [slots] rotating tile buffers when the run is recorded
    for the double-buffer replay, a single tile otherwise (the slices
    execute serially, so one backing block stands in for the rotation),
    plus the resident block. *)
let reserve t ~recorded =
  ((if recorded then t.spec.slots else 1) * t.tile_bytes) + t.spec.resident_bytes

(** [tile t i] is the [i]-th tile; the last one carries the remainder. *)
let tile t i =
  if i < 0 || i >= t.n_tiles then
    invalid_arg
      (Printf.sprintf "Plan.tile: index %d outside [0, %d)" i t.n_tiles);
  let start = i * t.tile_items in
  { index = i; start; items = min t.tile_items (t.n_items - start) }

let pp ppf t =
  Fmt.pf ppf
    "plan %s: %d items, %d-item tiles x %d (remainder %d), %d B/tile x %d \
     slots + %d B resident <= %d B LDM"
    t.spec.kernel t.n_items t.tile_items t.n_tiles t.remainder t.tile_bytes
    t.spec.slots t.spec.resident_bytes t.ldm_budget
