(** Update-mark bit map (Figure 5 / Algorithms 3-4 of the paper).

    One bit per cache line records whether the line's copy in a CPE's
    redundant force array has ever been written.  Lines whose bit is
    clear are known to still hold their initial zeros, so the
    initialization step can be skipped entirely and the reduction step
    can skip fetching them. *)

type t

(** Bits stored per native word (63 on 64-bit systems). *)
val bits_per_word : int

(** [create n] is a map of [n] clear bits. *)
val create : int -> t

(** [length t] is the number of bits in the map. *)
val length : t -> int

(** [mark t i] sets bit [i]. *)
val mark : t -> int -> unit

(** [is_marked t i] is [true] iff bit [i] is set. *)
val is_marked : t -> int -> bool

(** [clear t] resets every bit — the O(words) operation that replaces
    the O(particles) array initialization of the redundant-memory
    approach. *)
val clear : t -> unit

(** [count t] is the number of set bits. *)
val count : t -> int

(** [iter_marked t f] calls [f i] for every set bit [i], ascending. *)
val iter_marked : t -> (int -> unit) -> unit
