(** Update-mark bit map (Figure 5 / Algorithms 3-4 of the paper).

    One bit per cache line records whether the line's copy in a CPE's
    redundant force array has ever been written.  Lines whose bit is
    clear are known to still hold their initial zeros, so the
    initialization step can be skipped entirely and the reduction step
    can skip fetching them.  Bits are packed 63 per [int] (OCaml native
    ints), mirroring the paper's packing of 8 lines per byte. *)

type t = {
  mutable words : int array;
  n_bits : int;
}

let bits_per_word = Sys.int_size  (* 63 on 64-bit systems *)

(** [create n] is a map of [n] clear bits. *)
let create n =
  if n < 0 then invalid_arg "Bitmap.create: negative size";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n_bits = n }

(** [length t] is the number of bits in the map. *)
let length t = t.n_bits

let check t i =
  if i < 0 || i >= t.n_bits then invalid_arg "Bitmap: index out of range"

(** [mark t i] sets bit [i]. *)
let mark t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

(** [is_marked t i] is [true] iff bit [i] is set. *)
let is_marked t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(** [clear t] resets every bit.  This is O(words), i.e. the cheap
    operation that replaces the O(particles) array initialization of
    the redundant-memory approach. *)
let clear t = Array.fill t.words 0 (Array.length t.words) 0

(** [count t] is the number of set bits. *)
let count t =
  let popcount w =
    let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
    go w 0
  in
  Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(** [iter_marked t f] calls [f i] for every set bit [i], ascending. *)
let iter_marked t f =
  for i = 0 to t.n_bits - 1 do
    if is_marked t i then f i
  done
