(** Tolerance classes: the one audited float comparator.

    Every numeric pin in the test suite belongs to exactly one of
    three classes, and stating the class is part of stating the test:

    - {!Exact_bits} — the determinism contract.  Schedule invariance,
      domain-count identity, fault-recovery replay and checkpoint
      round-trips promise the {e same bits}, so the comparison is
      [Int64.bits_of_float] equality: two NaNs with the same payload
      are equal, [+0.] and [-0.] are not.
    - {!Ulp} — the rounding-error budget.  Results that take the same
      mathematical path but may associate differently (cross-platform,
      4- vs 8-lane SIMD) agree to a counted number of representable
      values.  NaN is within no budget of anything; infinities match
      only themselves (at distance 0); [+0.] and [-0.] are 0 ulps
      apart; denormals are measured at their true spacing.
    - {!Rel_abs} — the physical-drift budget.  Quantities that are
      only physically (not numerically) pinned — energy conservation,
      thermostat convergence, mixed- vs double-precision agreement —
      pass when [|a - b| <= abs + rel * max |a| |b|].  NaN fails;
      equal infinities pass (a drift bound on an infinite value is
      meaningless, but identity still holds).

    The comparator never widens silently: a NaN on either side fails
    every class except a bit-identical NaN under {!Exact_bits}. *)

type t =
  | Exact_bits
  | Ulp of int  (** maximum ULP distance *)
  | Rel_abs of { rel : float; abs : float }

(** [exact] is {!Exact_bits}. *)
val exact : t

(** [ulps n] is [Ulp n]. *)
val ulps : int -> t

(** [rel_abs ~rel ~abs] is [Rel_abs {rel; abs}]. *)
val rel_abs : rel:float -> abs:float -> t

(** [drift rel] is the physical-drift shorthand
    [Rel_abs {rel; abs = rel}] — the legacy
    [|a - b| <= eps * max 1 |a|] tests translate to this class. *)
val drift : float -> t

val to_string : t -> string

(** [close t a b] decides the comparison. *)
val close : t -> float -> float -> bool

(** [explain t a b] is a one-line diagnosis of the pair: both values
    in hex-float form, their ULP distance, absolute and relative
    error, and the verdict against [t]. *)
val explain : t -> float -> float -> string

(** [check ?what t expected got] raises [Failure] with {!explain}
    (prefixed by [what]) when the comparison fails.  This is the
    single choke point the test sweep funnels through. *)
val check : ?what:string -> t -> float -> float -> unit
