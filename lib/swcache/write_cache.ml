(** Deferred-update write cache (Figure 4 / Algorithm 3 of the paper).

    Interaction updates of the same particle often recur across inner
    loops, so instead of one DMA update per pair the CPE accumulates
    deltas in a direct-mapped LDM buffer keyed like a one-way {!Read_cache}.
    Main memory (the CPE's redundant force copy) is touched only when a
    line is displaced or at the final flush.

    Two operating modes:

    - {b plain deferred update}: the force copy must be zero-initialized
      up front (the kernel charges that as whole 2 KB DMA blocks); a
      displaced line is written back and the incoming line is always
      fetched.
    - {b with update marks} (Algorithm 3): a {!Bitmap} records which
      memory lines have ever left the cache.  Unmarked lines are known
      to be zero, so they are initialized locally for free (no fetch),
      and the expensive up-front initialization disappears. *)

type t = {
  cfg : Swarch.Config.t;
  cost : Swarch.Cost.t;
  copy : float array;  (** this CPE's force copy in main memory *)
  elt_floats : int;
  line_elts : int;
  n_lines : int;
  tags : int array;  (** per-cache-line memory tag; -1 = invalid *)
  data : float array;  (** accumulated values, [n_lines*line_elts*elt_floats] *)
  marks : Bitmap.t option;  (** update marks over memory lines, if enabled *)
  stats : Stats.t;
  line_bytes : int;
  ldm : Swarch.Ldm.t option;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(** [n_mem_lines ~n_elements ~line_elts] is the number of memory lines
    covering an array of [n_elements] elements. *)
let n_mem_lines ~n_elements ~line_elts = (n_elements + line_elts - 1) / line_elts

(** [footprint_bytes ~elt_floats ~line_elts ~n_lines ~with_marks ~n_elements]
    is the LDM cost of the cache (marks included when enabled). *)
let footprint_bytes ~elt_floats ~line_elts ~n_lines ~with_marks ~n_elements =
  let base = (n_lines * line_elts * elt_floats * 4) + (n_lines * 4) in
  if with_marks then
    base + ((n_mem_lines ~n_elements ~line_elts + 7) / 8)
  else base

(** [create cfg cost ?ldm ~with_marks ~copy ~elt_floats ~line_elts
    ~n_lines ()] builds an empty write cache over the force copy
    [copy]. *)
let create (cfg : Swarch.Config.t) cost ?ldm ~with_marks ~copy ~elt_floats
    ~line_elts ~n_lines () =
  if elt_floats <= 0 then invalid_arg "Write_cache: elt_floats must be positive";
  if not (is_pow2 line_elts) then invalid_arg "Write_cache: line_elts must be a power of two";
  if not (is_pow2 n_lines) then invalid_arg "Write_cache: n_lines must be a power of two";
  let n_elements = Array.length copy / elt_floats in
  (match ldm with
  | Some l ->
      Swarch.Ldm.alloc l
        (footprint_bytes ~elt_floats ~line_elts ~n_lines ~with_marks ~n_elements)
  | None -> ());
  {
    cfg;
    cost;
    copy;
    elt_floats;
    line_elts;
    n_lines;
    tags = Array.make n_lines (-1);
    data = Array.make (n_lines * line_elts * elt_floats) 0.0;
    marks =
      (if with_marks then Some (Bitmap.create (n_mem_lines ~n_elements ~line_elts))
       else None);
    stats = Stats.create ();
    line_bytes = line_elts * elt_floats * 4;
    ldm;
  }

(** [release t] returns the cache's LDM allocation, if any. *)
let release t =
  match t.ldm with
  | Some l ->
      let n_elements = Array.length t.copy / t.elt_floats in
      Swarch.Ldm.free l
        (footprint_bytes ~elt_floats:t.elt_floats ~line_elts:t.line_elts
           ~n_lines:t.n_lines ~with_marks:(t.marks <> None) ~n_elements)
  | None -> ()

(** [stats t] is the cache's hit/miss record. *)
let stats t = t.stats

(** [marks t] is the update-mark bitmap, when the cache runs in marked
    mode. *)
let marks t = t.marks

(** [n_elements t] is the number of elements the copy array holds. *)
let n_elements t = Array.length t.copy / t.elt_floats

let write_back t line =
  let tag = t.tags.(line) in
  let mem_line = (tag * t.n_lines) + line in
  let dst = mem_line * t.line_elts * t.elt_floats in
  let src = line * t.line_elts * t.elt_floats in
  let len = min (t.line_elts * t.elt_floats) (Array.length t.copy - dst) in
  if len > 0 then Array.blit t.data src t.copy dst len;
  Swarch.Dma.put t.cfg t.cost ~bytes:t.line_bytes;
  t.stats.Stats.writebacks <- t.stats.Stats.writebacks + 1;
  (match t.marks with Some m -> Bitmap.mark m mem_line | None -> ())

let load_line t line tag =
  let mem_line = (tag * t.n_lines) + line in
  let dst = line * t.line_elts * t.elt_floats in
  let must_fetch =
    match t.marks with
    | None -> true (* plain deferred update always round-trips *)
    | Some m ->
        Swarch.Cost.int_ops t.cost 2.0;
        Bitmap.is_marked m mem_line
  in
  if must_fetch then begin
    (* Alg 3 line 13: the line has prior content in the copy. *)
    let src = mem_line * t.line_elts * t.elt_floats in
    let len = min (t.line_elts * t.elt_floats) (Array.length t.copy - src) in
    Array.fill t.data dst (t.line_elts * t.elt_floats) 0.0;
    if len > 0 then Array.blit t.copy src t.data dst len;
    Swarch.Dma.get t.cfg t.cost ~bytes:t.line_bytes
  end
  else begin
    (* Alg 3 line 15: known-zero line; initialize locally, no traffic. *)
    Array.fill t.data dst (t.line_elts * t.elt_floats) 0.0;
    Swarch.Cost.int_ops t.cost 1.0
  end;
  t.tags.(line) <- tag

let touch t i =
  if i < 0 || i >= n_elements t then invalid_arg "Write_cache: bad index";
  Swarch.Cost.int_ops t.cost 4.0;
  let mem_line = i / t.line_elts in
  let line = mem_line land (t.n_lines - 1) in
  let tag = mem_line / t.n_lines in
  if t.tags.(line) = tag then t.stats.Stats.hits <- t.stats.Stats.hits + 1
  else begin
    t.stats.Stats.misses <- t.stats.Stats.misses + 1;
    if t.tags.(line) >= 0 then begin
      t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
      write_back t line
    end;
    load_line t line tag
  end;
  ((line * t.line_elts) + (i land (t.line_elts - 1))) * t.elt_floats

(** [accumulate t i j delta] adds [delta] to float [j] of element [i]
    through the cache (one deferred update). *)
let accumulate t i j delta =
  if j < 0 || j >= t.elt_floats then invalid_arg "Write_cache.accumulate: bad field";
  let off = touch t i in
  t.data.(off + j) <- t.data.(off + j) +. delta

(** [accumulate3 t i dx dy dz] adds a force triple to element [i]; the
    common case for 3-component force arrays ([elt_floats >= 3]). *)
let accumulate3 t i dx dy dz =
  let off = touch t i in
  t.data.(off) <- t.data.(off) +. dx;
  t.data.(off + 1) <- t.data.(off + 1) +. dy;
  t.data.(off + 2) <- t.data.(off + 2) +. dz

(** [accumulate_at t i base src off] adds the force triple
    [src.(off) .. src.(off+2)] at float offset [base..base+2] inside
    element [i] — one cache access, used when an element packs several
    particles' forces.  The triple is read from an array so that no
    float crosses the call. *)
let accumulate_at t i base (src : float array) off =
  if base < 0 || base + 2 >= t.elt_floats then
    invalid_arg "Write_cache.accumulate_at: bad base";
  let off_c = touch t i in
  t.data.(off_c + base) <- t.data.(off_c + base) +. src.(off);
  t.data.(off_c + base + 1) <- t.data.(off_c + base + 1) +. src.(off + 1);
  t.data.(off_c + base + 2) <- t.data.(off_c + base + 2) +. src.(off + 2)

(** [flush t] writes every resident line back to the force copy and
    invalidates the cache.  Must be called before the reduction step. *)
let flush t =
  for line = 0 to t.n_lines - 1 do
    if t.tags.(line) >= 0 then begin
      write_back t line;
      t.tags.(line) <- -1
    end
  done
