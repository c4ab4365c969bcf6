(** Deferred-update write cache (Figure 4 / Algorithm 3 of the paper).

    Interaction updates of the same particle often recur across inner
    loops, so instead of one DMA update per pair the CPE accumulates
    deltas in a direct-mapped LDM buffer.  Main memory (the CPE's
    redundant force copy) is touched only when a line is displaced or
    at the final flush.  With update marks enabled (Algorithm 3), cold
    lines are initialized locally for free and the up-front copy
    initialization disappears. *)

type t

(** [n_mem_lines ~n_elements ~line_elts] is the number of memory lines
    covering an array of [n_elements] elements. *)
val n_mem_lines : n_elements:int -> line_elts:int -> int

(** [footprint_bytes ~elt_floats ~line_elts ~n_lines ~with_marks
    ~n_elements] is the LDM cost of the cache. *)
val footprint_bytes :
  elt_floats:int ->
  line_elts:int ->
  n_lines:int ->
  with_marks:bool ->
  n_elements:int ->
  int

(** [create cfg cost ?ldm ~with_marks ~copy ~elt_floats ~line_elts
    ~n_lines ()] builds an empty write cache over the force copy
    [copy]. *)
val create :
  Swarch.Config.t ->
  Swarch.Cost.t ->
  ?ldm:Swarch.Ldm.t ->
  with_marks:bool ->
  copy:float array ->
  elt_floats:int ->
  line_elts:int ->
  n_lines:int ->
  unit ->
  t

(** [release t] returns the cache's LDM allocation, if any. *)
val release : t -> unit

(** [stats t] is the cache's hit/miss record. *)
val stats : t -> Stats.t

(** [marks t] is the update-mark bitmap, when the cache runs in marked
    mode. *)
val marks : t -> Bitmap.t option

(** [n_elements t] is the number of elements the copy array holds. *)
val n_elements : t -> int

(** [accumulate t i j delta] adds [delta] to float [j] of element [i]
    through the cache (one deferred update). *)
val accumulate : t -> int -> int -> float -> unit

(** [accumulate3 t i dx dy dz] adds a force triple to element [i]. *)
val accumulate3 : t -> int -> float -> float -> float -> unit

(** [accumulate_at t i base src off] adds the force triple
    [src.(off) .. src.(off+2)] at float offset [base..base+2] inside
    element [i] — one cache access. *)
val accumulate_at : t -> int -> int -> float array -> int -> unit

(** [flush t] writes every resident line back to the force copy and
    invalidates the cache.  Must be called before the reduction step. *)
val flush : t -> unit
