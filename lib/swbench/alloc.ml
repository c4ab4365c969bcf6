(** GC allocation accounting for the bench harness.

    The zero-allocation refactor (flat Bigarray MD state, in-place
    SIMD, pooled event queue) is only as good as its regression story:
    this module measures how many heap words one "step" of a workload
    allocates, so the bench harness can publish [alloc_words_per_step]
    next to [wall_step_ms] and the test suite can gate on a pinned
    budget.  See docs/ALLOC.md for how to read the numbers.

    A window opens and closes with minor collections, and reads
    {!Gc.quick_stat} right after them.  A minor collection stops every
    domain, empties its minor heap and publishes its counters, direct
    major-heap allocations included, so the read is exact and covers
    the worker domains of [--domains N > 1] too.  Read without the
    collection, {!Gc.quick_stat} lags until the next one: a step that
    allocates one 10,000-float array read 0, 0 and 20,040 words in
    three runs.  {!Gc.counters} does not lag, but it sees only the
    calling domain (half of a step at [--domains 4]), and on OCaml 5.1
    its minor-word figure undercounts a window that ends between
    collections. *)

type sample = {
  minor_words : float;  (** words allocated in the minor heap, per step *)
  major_words : float;  (** words allocated directly on the major heap *)
  promoted_words : float;  (** minor words that survived into the major heap *)
  minor_collections : float;  (** minor GCs triggered, per step *)
}

(** [words s] is the total fresh allocation of one step: minor plus
    major, with promotions subtracted (a promoted word was already
    counted when it was minor-allocated). *)
let words s = s.minor_words +. s.major_words -. s.promoted_words

(* every domain's counters, exact as of a stop-the-world minor
   collection.  It takes two: after one alone, OCaml 5.1 had not yet
   counted a 10,000-float array allocated just before it, and charged
   the array to the window. *)
let totals () =
  Gc.minor ();
  Gc.minor ();
  Gc.quick_stat ()

(** [measure ?warmup ?steps f] runs [f ()] [warmup] times (populating
    caches and lazies so steady-state behaviour is what gets counted),
    then measures GC counters across [steps] further runs and returns
    the per-step deltas.  The measurement itself allocates only the
    two {!Gc.quick_stat} records, a constant that is amortised across
    [steps], and its closing collections are not counted. *)
let measure ?(warmup = 1) ?(steps = 3) f =
  if steps < 1 then invalid_arg "Alloc.measure: steps < 1";
  for _ = 1 to warmup do
    f ()
  done;
  let s0 = totals () in
  for _ = 1 to steps do
    f ()
  done;
  let s1 = totals () in
  let per x0 x1 = (x1 -. x0) /. float_of_int steps in
  {
    minor_words = per s0.Gc.minor_words s1.Gc.minor_words;
    major_words = per s0.Gc.major_words s1.Gc.major_words;
    promoted_words = per s0.Gc.promoted_words s1.Gc.promoted_words;
    minor_collections =
      per
        (float_of_int s0.Gc.minor_collections)
        (float_of_int (s1.Gc.minor_collections - 2));
  }
