(** Figure 13: accuracy of the optimized implementation.

    Two real simulations of the same thermalized water box: the
    double-precision reference workflow (the "x86" curve) and the
    dynamics driven by the optimized mixed-precision Mark kernel (the
    "opt4" curve).  The paper tracks total energy and temperature over
    500,000 steps; the reproduction uses a scaled-down run (the
    substitution is recorded in EXPERIMENTS.md) and reports the same
    two series plus summary deviations. *)

module E = Swgmx.Engine
module Md = Mdcore
module T = Table_render

type series = { step : int; ref_energy : float; opt_energy : float; ref_temp : float; opt_temp : float }

type result = {
  samples : series list;
  mean_energy_dev : float;  (** relative deviation of mean total energy *)
  mean_temp_dev : float;  (** absolute deviation of mean temperature, K *)
  max_energy_dev : float;  (** largest per-sample relative energy deviation *)
}

let mean f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)

(** [data ~quick ()] runs both trajectories and aligns the samples. *)
let data ~quick () =
  let molecules = if quick then 32 else 96 in
  let steps = if quick then 200 else 2000 in
  let equil_steps = if quick then 100 else 500 in
  let sample_every = steps / 20 in
  let seed = 77 in
  (* optimized path: Mark kernel dynamics *)
  let opt = E.simulate ~molecules ~seed ~steps ~sample_every ~equil_steps () in
  (* reference path: the same system, set-up and step stages (at the
     Engine's default dt and temperature) with the double-precision
     short-range kernel *)
  let w = Md.Workflow.water_box ~dt:0.001 ~temp:300.0 ~molecules ~seed in
  Md.Workflow.equilibrate w ~seed ~steps:equil_steps;
  let ref_samples = ref [] in
  for step = 1 to steps do
    Md.Workflow.step w;
    if step mod sample_every = 0 then
      ref_samples :=
        (step, Md.Workflow.total_energy w, Md.Workflow.temperature w) :: !ref_samples
  done;
  let refs = List.rev !ref_samples in
  let samples =
    List.map2
      (fun (step, re, rt) (o : E.sample) ->
        {
          step;
          ref_energy = re;
          opt_energy = o.E.total_energy;
          ref_temp = rt;
          opt_temp = o.E.temperature;
        })
      refs opt
  in
  let e_ref = mean (fun s -> s.ref_energy) samples in
  let e_opt = mean (fun s -> s.opt_energy) samples in
  let t_ref = mean (fun s -> s.ref_temp) samples in
  let t_opt = mean (fun s -> s.opt_temp) samples in
  let max_e =
    List.fold_left
      (fun m s -> Float.max m (Float.abs (s.opt_energy -. s.ref_energy) /. Float.abs s.ref_energy))
      0.0 samples
  in
  {
    samples;
    mean_energy_dev = Float.abs (e_opt -. e_ref) /. Float.abs e_ref;
    mean_temp_dev = Float.abs (t_opt -. t_ref);
    max_energy_dev = max_e;
  }

(** [run ~quick ppf] renders the two series and the deviations. *)
let run ~quick ppf =
  Fmt.pf ppf "Figure 13: accuracy — optimized (mixed precision) vs reference@.";
  let r = data ~quick () in
  T.table ppf
    ~headers:[ "step"; "E_ref (kJ/mol)"; "E_opt (kJ/mol)"; "T_ref (K)"; "T_opt (K)" ]
    (List.map
       (fun s ->
         [
           string_of_int s.step;
           T.fmt_float ~dec:4 s.ref_energy;
           T.fmt_float ~dec:4 s.opt_energy;
           T.fmt_float ~dec:2 s.ref_temp;
           T.fmt_float ~dec:2 s.opt_temp;
         ])
       r.samples);
  Fmt.pf ppf "mean total-energy deviation: %.5f%%@." (100.0 *. r.mean_energy_dev);
  Fmt.pf ppf "max per-sample energy deviation: %.5f%%@." (100.0 *. r.max_energy_dev);
  Fmt.pf ppf "mean temperature deviation: %.3f K@." r.mean_temp_dev;
  Fmt.pf ppf "  paper: deviations contained in a narrow band over 500k steps@."
