(** Leapfrog integrator — GROMACS's default "md" integrator.

    Velocities live at half steps: [v(t+dt/2) = v(t-dt/2) + dt f(t)/m],
    [x(t+dt) = x(t) + dt v(t+dt/2)]. *)

(** [step state ~dt] advances positions and velocities one leapfrog
    step using the current forces. *)
let step (state : Md_state.t) ~dt =
  if dt <= 0.0 then invalid_arg "Integrator.step: dt must be positive";
  let n = Md_state.n_atoms state in
  let mass = state.Md_state.topo.Topology.mass in
  let pos = state.Md_state.pos
  and vel = state.Md_state.vel
  and force = state.Md_state.force in
  for i = 0 to n - 1 do
    let inv_m = dt /. mass.(i) in
    for d = 0 to 2 do
      let k = (3 * i) + d in
      Fbuf.unsafe_set vel k
        (Fbuf.unsafe_get vel k +. (Fbuf.unsafe_get force k *. inv_m));
      Fbuf.unsafe_set pos k
        (Fbuf.unsafe_get pos k +. (dt *. Fbuf.unsafe_get vel k))
    done
  done
