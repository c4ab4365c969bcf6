(** The deterministic domain pool.

    A fixed set of worker domains (grown lazily to [Domains.get () - 1]
    and kept for the life of the process) executes statically sharded
    parallel sections: the index range is cut into contiguous stripes,
    one per shard, with no work stealing — shard boundaries depend only
    on [(n, shards)], never on timing.  Results come back as an array
    in shard order, so a caller that merges them left to right performs
    the {e same} reduction for every domain count; that static
    assignment plus ordered merge is what keeps floating-point outputs
    bit-identical from [--domains 1] to [--domains N].

    Shard 0 always runs on the calling domain (a section at N = 1
    never touches a mutex); shards 1..S-1 are handed to pool workers
    through a one-slot mailbox each.  Exceptions raised inside a shard
    are caught, carried back, and re-raised on the caller — the lowest
    shard's exception wins, again independent of timing. *)

(* --- the worker mailbox ---------------------------------------------- *)

type worker = {
  m : Mutex.t;
  start : Condition.t;  (** caller -> worker: a job was posted *)
  finished : Condition.t;  (** worker -> caller: the job completed *)
  mutable job : (unit -> unit) option;
  mutable busy : bool;
}

let rec worker_loop w =
  Mutex.lock w.m;
  while w.job = None do
    Condition.wait w.start w.m
  done;
  let job = Option.get w.job in
  Mutex.unlock w.m;
  (* the job wrapper (see [map_stripes]) captures exceptions itself *)
  job ();
  Mutex.lock w.m;
  w.job <- None;
  w.busy <- false;
  Condition.signal w.finished;
  Mutex.unlock w.m;
  worker_loop w

let spawn_worker () =
  let w =
    {
      m = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      busy = false;
    }
  in
  ignore
    (Domain.spawn (fun () ->
         (* a worker only ever runs shards, so any parallel section it
            opens itself must degrade to the inline path *)
         Domains.set_in_parallel true;
         worker_loop w));
  w

(* the pool: grown on demand, never shrunk (idle workers sleep on
   their condition variable and cost nothing) *)
let workers : worker array ref = ref [||]

let ensure_workers n =
  let have = Array.length !workers in
  if n > have then
    workers :=
      Array.append !workers (Array.init (n - have) (fun _ -> spawn_worker ()))

let submit w job =
  Mutex.lock w.m;
  w.busy <- true;
  w.job <- Some job;
  Condition.signal w.start;
  Mutex.unlock w.m

let await w =
  Mutex.lock w.m;
  while w.busy do
    Condition.wait w.finished w.m
  done;
  Mutex.unlock w.m

(* --- static sharding -------------------------------------------------- *)

(** [stripes ~shards ~n] cuts [0, n) into [shards] contiguous stripes
    [(lo, hi)], balanced to within one element (the remainder goes to
    the leading stripes).  Pure index arithmetic: the cut depends only
    on the two arguments. *)
let stripes ~shards ~n =
  if shards < 1 then invalid_arg "Swpar.Pool.stripes: shards must be >= 1";
  if n < 0 then invalid_arg "Swpar.Pool.stripes: n must be >= 0";
  let base = n / shards and rem = n mod shards in
  Array.init shards (fun s ->
      let lo = (s * base) + min s rem in
      let hi = lo + base + if s < rem then 1 else 0 in
      (lo, hi))

(** [map_stripes ~n f] runs [f ~shard ~lo ~hi] over the stripes of
    [0, n) — one shard per configured domain (capped at [n]) — and
    returns the results in shard order.  With one domain, inside a
    nested section, or for [n <= 1], everything runs inline on the
    caller; the stripe seen by [f] in that case is the whole range, and
    because the sharded path also merges in shard order, any
    shard-order fold the caller performs is identical either way. *)
let map_stripes ~n f =
  let shards = max 1 (min (Domains.get ()) n) in
  if shards = 1 || Domains.in_parallel () then [| f ~shard:0 ~lo:0 ~hi:n |]
  else begin
    ensure_workers (shards - 1);
    let st = stripes ~shards ~n in
    let results : ('a, exn * Printexc.raw_backtrace) result option array =
      Array.make shards None
    in
    let run s () =
      let lo, hi = st.(s) in
      results.(s) <-
        Some
          (try Ok (f ~shard:s ~lo ~hi)
           with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let ws = !workers in
    for s = 1 to shards - 1 do
      submit ws.(s - 1) (run s)
    done;
    (* shard 0 belongs to the caller; flag the domain so anything it
       calls runs its own parallel sections inline *)
    Domains.set_in_parallel true;
    Fun.protect
      ~finally:(fun () -> Domains.set_in_parallel false)
      (run 0);
    for s = 1 to shards - 1 do
      await ws.(s - 1)
    done;
    (* deterministic error propagation: the lowest failing shard wins *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

(** [iter_stripes ~n f] is {!map_stripes} for effect-only shards. *)
let iter_stripes ~n f =
  ignore
    (map_stripes ~n (fun ~shard ~lo ~hi ->
         f ~shard ~lo ~hi) : unit array)
