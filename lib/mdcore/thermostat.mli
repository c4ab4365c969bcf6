(** Temperature coupling: Berendsen weak coupling. *)

type t = { t_ref : float; tau : float }

(** [create ~t_ref ~tau ()] is a thermostat coupling to [t_ref] kelvin
    with time constant [tau] ps. *)
val create : t_ref:float -> tau:float -> unit -> t

(** [lambda t ~dt ~temp] is the Berendsen scaling factor (clamped to
    [0.8, 1.25]). *)
val lambda : t -> dt:float -> temp:float -> float

(** [apply t state ~dt] rescales all velocities in place by
    {!lambda} of the current temperature. *)
val apply : t -> Md_state.t -> dt:float -> unit
