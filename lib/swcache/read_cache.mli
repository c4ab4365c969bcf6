(** Set-associative software read cache: direct-mapped (one way) for
    the force kernels (Figure 3 of the paper), two-way for pair-list
    generation (Section 3.5).

    CPEs have no hardware cache; instead the kernel keeps a small cache
    of main-memory "elements" (particle packages) in LDM.  An element
    index is decomposed into tag / set / offset by bit operations; on a
    tag mismatch in every way of the set, the whole line is fetched
    from main memory by one DMA transfer.  With two ways the victim is
    the set's least recently used way. *)

type t = {
  cfg : Swarch.Config.t;
  cost : Swarch.Cost.t;
  backing : float array;  (** main-memory array (read-only here) *)
  elt_floats : int;  (** floats per element *)
  line_elts : int;  (** elements per cache line; power of two *)
  ways : int;  (** lines per set: 1 or 2 *)
  n_sets : int;  (** number of sets; power of two *)
  tags : int array;  (** per-line tag, [ways] per set; [-1] = invalid *)
  lru : int array;  (** per-set least recently used way; empty with one way *)
  data : float array;  (** cached lines *)
  stats : Stats.t;
  line_bytes : int;  (** DMA transfer size of one line fill *)
  tag_ops : float;  (** integer ops charged per access: 4, or 5 with two ways *)
  ldm : Swarch.Ldm.t option;
}

(** [footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines] is the LDM
    cost of such a cache: data, tags and, with two ways, one LRU byte
    per set. *)
val footprint_bytes :
  ways:int -> elt_floats:int -> line_elts:int -> n_lines:int -> int

(** [create cfg cost ?ldm ~ways ~backing ~elt_floats ~line_elts
    ~n_lines ()] builds an empty cache of [n_lines] lines, in sets of
    [ways] (1 or 2; anything else is rejected), in front of [backing].
    When [ldm] is given, the footprint is allocated from it (failing
    loudly past 64 KB). *)
val create :
  Swarch.Config.t ->
  Swarch.Cost.t ->
  ?ldm:Swarch.Ldm.t ->
  ways:int ->
  backing:float array ->
  elt_floats:int ->
  line_elts:int ->
  n_lines:int ->
  unit ->
  t

(** [release t] returns the cache's LDM allocation, if any. *)
val release : t -> unit

(** [stats t] is the cache's hit/miss record. *)
val stats : t -> Stats.t

(** [n_elements t] is the number of elements in the backing store. *)
val n_elements : t -> int

(** [touch t i] ensures element [i] is resident, charging tag
    arithmetic and, on a miss, one line-sized DMA fetch into the set's
    least recently used way.  Returns the float offset of the element
    inside [data]. *)
val touch : t -> int -> int

(** [get t i j] is float [j] of element [i], through the cache. *)
val get : t -> int -> int -> float
