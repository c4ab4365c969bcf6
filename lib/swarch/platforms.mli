(** Cross-platform comparison model (Table 4 and Equations 3-4).

    Encodes the published platform facts and the paper's
    "time to fulfill" (TTF) equations so Figure 11 can be regenerated. *)

type t = {
  name : string;
  peak_flops : float;  (** flop/s *)
  mem_bw : float;  (** bytes/s *)
  cache_desc : string;  (** on-chip storage description for Table 4 *)
  miss_rate : float;  (** effective last-level miss rate of the kernel *)
}

(** Knights Landing, per Table 4 / Section 4.5. *)
val knl : t

(** [row_of p] derives a comparison row from a simulator platform, so
    the analytic table and the simulator share one machine record. *)
val row_of : Platform.t -> t

(** SW26010, derived from {!Platform.sw26010}; its miss rate
    reproduces both published TTF ratios simultaneously. *)
val sw26010 : t

(** P100, per Table 4 / Section 4.5. *)
val p100 : t

(** All platforms of Table 4, in the paper's column order. *)
val all : t list

(** [ttf_ratio a b] is TTF(a)/TTF(b) per Equations 3-4. *)
val ttf_ratio : t -> t -> float

(** [fair_chip_count other] is the number of SW26010 chips whose
    aggregate TTF matches one [other] device (150 for KNL, 24 for
    P100). *)
val fair_chip_count : t -> int
