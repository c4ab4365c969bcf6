(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation section from the simulator and models in this
    repository.  See {!Registry} for the experiment index. *)

module Table_render = Table_render
module Workload = Workload
module Common = Common
module Alloc = Alloc
module Exp_tables = Exp_tables
module Exp_fig8 = Exp_fig8
module Exp_fig9 = Exp_fig9
module Exp_fig10 = Exp_fig10
module Exp_fig11 = Exp_fig11
module Exp_fig12 = Exp_fig12
module Exp_fig13 = Exp_fig13
module Ablations = Ablations
module Registry = Registry
