(** Set-associative software read cache: direct-mapped (one way) for
    the force kernels (Figure 3 of the paper), two-way for pair-list
    generation (Section 3.5).

    CPEs have no hardware cache; instead the kernel keeps a small cache
    of main-memory "elements" (particle packages) in LDM.  An element
    index is decomposed into tag / set / offset by bit operations; on a
    tag mismatch in every way of the set, the whole line is fetched
    from main memory by one DMA transfer, which is what turns many tiny
    accesses into few large ones.  With two ways the victim is the
    set's least recently used way: the pair search's two aliasing
    streams then share a set instead of evicting each other (>85%
    misses direct-mapped, ~10% two-way in the paper).

    The cache is generic over flat [float array] backing storage where
    each element occupies [elt_floats] consecutive floats.  Cached data
    is held in single precision conceptually; the footprint charged to
    LDM uses 4-byte floats. *)

type t = {
  cfg : Swarch.Config.t;
  cost : Swarch.Cost.t;  (** CPE cost accumulator charged for DMA/tag math *)
  backing : float array;  (** main-memory array (read-only here) *)
  elt_floats : int;  (** floats per element *)
  line_elts : int;  (** elements per cache line; power of two *)
  ways : int;  (** lines per set: 1 or 2 *)
  n_sets : int;  (** number of sets; power of two *)
  tags : int array;  (** per-line tag, [ways] per set; [-1] = invalid *)
  lru : int array;  (** per-set least recently used way; empty with one way *)
  data : float array;  (** cached lines, [n_lines * line_elts * elt_floats] *)
  stats : Stats.t;
  line_bytes : int;  (** DMA transfer size of one line fill *)
  tag_ops : float;  (** integer ops charged per access *)
  ldm : Swarch.Ldm.t option;  (** scratchpad the cache lives in, if tracked *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** [footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines] is the LDM
    cost of such a cache: data lines (4-byte floats), the tag array
    and, with two ways, one LRU byte per set. *)
let footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines =
  (n_lines * line_elts * elt_floats * 4)
  + (n_lines * 4)
  + if ways = 2 then n_lines / 2 else 0

(** [create cfg cost ?ldm ~ways ~backing ~elt_floats ~line_elts
    ~n_lines ()] builds an empty cache of [n_lines] lines grouped into
    sets of [ways] in front of [backing].  When [ldm] is given, the
    cache's footprint is allocated from it (and the allocation fails
    loudly if the configuration would not fit in 64 KB). *)
let create (cfg : Swarch.Config.t) cost ?ldm ~ways ~backing ~elt_floats
    ~line_elts ~n_lines () =
  if ways <> 1 && ways <> 2 then invalid_arg "Read_cache: ways must be 1 or 2";
  if elt_floats <= 0 then invalid_arg "Read_cache: elt_floats must be positive";
  if not (is_pow2 line_elts) then invalid_arg "Read_cache: line_elts must be a power of two";
  if not (is_pow2 (n_lines / ways) && n_lines mod ways = 0) then
    invalid_arg "Read_cache: n_lines / ways must be a power of two";
  let n_sets = n_lines / ways in
  (match ldm with
  | Some l -> Swarch.Ldm.alloc l (footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines)
  | None -> ());
  {
    cfg;
    cost;
    backing;
    elt_floats;
    line_elts;
    ways;
    n_sets;
    tags = Array.make n_lines (-1);
    lru = Array.make (if ways = 2 then n_sets else 0) 0;
    data = Array.make (n_lines * line_elts * elt_floats) 0.0;
    stats = Stats.create ();
    line_bytes = line_elts * elt_floats * 4;
    tag_ops = (if ways = 2 then 5.0 else 4.0);
    ldm;
  }

(** [release t] returns the cache's LDM allocation, if any. *)
let release t =
  match t.ldm with
  | Some l ->
      Swarch.Ldm.free l
        (footprint_bytes ~ways:t.ways ~elt_floats:t.elt_floats
           ~line_elts:t.line_elts ~n_lines:(Array.length t.tags))
  | None -> ()

(** [stats t] is the cache's hit/miss record. *)
let stats t = t.stats

(** [n_elements t] is the number of elements in the backing store. *)
let n_elements t = Array.length t.backing / t.elt_floats

let fill_line t set slot tag =
  let mem_line = (tag * t.n_sets) + set in
  let src = mem_line * t.line_elts * t.elt_floats in
  let dst = slot * t.line_elts * t.elt_floats in
  let len = min (t.line_elts * t.elt_floats) (Array.length t.backing - src) in
  if len > 0 then Array.blit t.backing src t.data dst len;
  (* partial tail lines still pay a full-line DMA *)
  Swarch.Dma.get t.cfg t.cost ~bytes:t.line_bytes;
  t.tags.(slot) <- tag

(** [touch t i] ensures element [i] is resident, charging tag
    arithmetic and, on a miss, one line-sized DMA fetch.  Returns the
    offset of the element's first float inside the cache [data]. *)
let touch t i =
  if i < 0 || i >= n_elements t then invalid_arg "Read_cache.touch: bad index";
  (* Fig 3 step 1: decompose address by bit operations (the second
     way costs one more compare). *)
  Swarch.Cost.int_ops t.cost t.tag_ops;
  let mem_line = i / t.line_elts in
  let set = mem_line land (t.n_sets - 1) in
  let tag = mem_line / t.n_sets in
  let first = set * t.ways in
  (* step 2: compare the tag of each way. *)
  let slot =
    if t.tags.(first) = tag then first
    else if t.ways = 2 && t.tags.(first + 1) = tag then first + 1
    else -1
  in
  let slot =
    if slot >= 0 then begin
      t.stats.Stats.hits <- t.stats.Stats.hits + 1;
      slot
    end
    else begin
      t.stats.Stats.misses <- t.stats.Stats.misses + 1;
      let victim = if t.ways = 2 then first + t.lru.(set) else first in
      if t.tags.(victim) >= 0 then t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
      (* step 3: fetch the line from MPE memory. *)
      fill_line t set victim tag;
      victim
    end
  in
  if t.ways = 2 then t.lru.(set) <- 1 - (slot - first);
  (* step 4: read data — offset within the line. *)
  ((slot * t.line_elts) + (i land (t.line_elts - 1))) * t.elt_floats

(** [get t i j] is float [j] of element [i], through the cache. *)
let get t i j =
  if j < 0 || j >= t.elt_floats then invalid_arg "Read_cache.get: bad field";
  let off = touch t i in
  t.data.(off + j)
