(** Temperature coupling.

    Berendsen weak coupling, the GROMACS option used with the water
    benchmark: deterministic rescaling towards the reference
    temperature, [lambda = sqrt(1 + dt/tau (T0/T - 1))]; simple and
    stable, does not sample the canonical ensemble. *)

type t = { t_ref : float; tau : float }

(** [create ~t_ref ~tau ()] is a thermostat coupling to [t_ref] kelvin
    with time constant [tau] ps. *)
let create ~t_ref ~tau () =
  if t_ref <= 0.0 then invalid_arg "Thermostat.create: t_ref must be positive";
  if tau <= 0.0 then invalid_arg "Thermostat.create: tau must be positive";
  { t_ref; tau }

(** [lambda t ~dt ~temp] is the Berendsen scaling factor for the
    instantaneous temperature [temp] (clamped to [0.8, 1.25] as
    GROMACS does to avoid shocks). *)
let lambda t ~dt ~temp =
  if temp <= 0.0 then 1.0
  else
    let l2 = 1.0 +. (dt /. t.tau *. ((t.t_ref /. temp) -. 1.0)) in
    Float.max 0.8 (Float.min 1.25 (sqrt (Float.max 0.0 l2)))

(** [apply t state ~dt] rescales all velocities in place by {!lambda}
    of the current temperature. *)
let apply t (state : Md_state.t) ~dt =
  let l = lambda t ~dt ~temp:(Md_state.temperature state) in
  let v = state.Md_state.vel in
  for i = 0 to Fbuf.length v - 1 do
    Fbuf.unsafe_set v i (Fbuf.unsafe_get v i *. l)
  done
