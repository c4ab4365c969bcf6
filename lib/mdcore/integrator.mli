(** Time integration: leapfrog, GROMACS's default "md" integrator. *)

(** [step state ~dt] advances positions and velocities one leapfrog
    step using the current forces: [v(t+dt/2) = v(t-dt/2) + dt f(t)/m],
    [x(t+dt) = x(t) + dt v(t+dt/2)]. *)
val step : Md_state.t -> dt:float -> unit
