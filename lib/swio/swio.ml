(** I/O substrate (Section 3.7).

    Two real implementations of the trajectory-output path — the
    standard [Printf]/[fwrite] route and the paper's specialized
    formatter with a 20 MB buffer — plus the simulated-time model the
    full-step engine charges for the "Write traj" kernel. *)

module Fvec = Fvec
module Fast_format = Fast_format
module Buffered_writer = Buffered_writer
module Trajectory = Trajectory
module Io_model = Io_model
module Checkpoint = Checkpoint
