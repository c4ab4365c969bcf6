(** Simulated-time cost model for trajectory output on the MPE.

    The constants follow the paper, not a host measurement: the
    standard [fprintf]+[fwrite] path costs roughly an order of
    magnitude more per particle than the specialized formatter with
    the 20 MB buffer, and I/O falls from ~30% of large-run time to a
    small residual, which these constants reproduce.  The two real
    code paths in this library differ by far less on an x86 host:
    about 1.5x per float (EXPERIMENTS.md, Section 3.7). *)

type path = Trajectory.path = Standard | Fast

(** Seconds of MPE time to format and stage one particle (three
    fixed-point floats) on each path. *)
let per_particle = function
  | Standard -> 1.2e-6  (* printf machinery, per-element fwrite *)
  | Fast -> 1.0e-7  (* specialized conversion, buffered write *)

(** Seconds per issued write(2) call. *)
let per_write_call = 4.0e-6

(** [frame_time ~path ~n_atoms] is the simulated seconds to write one
    trajectory frame of [n_atoms] particles. *)
let frame_time ~path ~n_atoms =
  let bytes_per_atom = 27 in
  let buffer = match path with Standard -> 4096 | Fast -> Buffered_writer.default_capacity in
  let calls = max 1 ((n_atoms * bytes_per_atom) / buffer) in
  (float_of_int n_atoms *. per_particle path)
  +. (float_of_int calls *. per_write_call)
