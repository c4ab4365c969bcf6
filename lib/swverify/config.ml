(** One execution configuration of the stack: which platform record,
    which kernel schedule, how many OCaml domains.  The fuzz runner
    sweeps a matrix of these; a repro line pins one down exactly. *)

type sched = Serial | Pipelined | Overlap

let sched_to_string = function
  | Serial -> "serial"
  | Pipelined -> "pipelined"
  | Overlap -> "overlap"

let sched_of_string = function
  | "serial" -> Ok Serial
  | "pipelined" -> Ok Pipelined
  | "overlap" -> Ok Overlap
  | s -> Error (Printf.sprintf "unknown schedule %S" s)

type t = { platform : string; sched : sched; domains : int }

let default = { platform = Swarch.Platform.default.Swarch.Platform.name; sched = Serial; domains = 1 }

let to_string t =
  Printf.sprintf "platform=%s schedule=%s domains=%d" t.platform
    (sched_to_string t.sched) t.domains

(** [cfg t] resolves the platform name against the registry; raises
    on an unknown name (a repro line for a custom platform must be
    replayed with that platform registered). *)
let cfg t : Swarch.Config.t =
  match Swarch.Platform.find t.platform with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Swverify.Config: unknown platform %S" t.platform)

(** [pipelined t] maps the schedule onto the kernel's boolean knob:
    [Overlap] changes the swstep plan, not the kernel path. *)
let pipelined t = t.sched = Pipelined

(** The config axes a property actually reads; the runner collapses
    the sweep matrix along the axes a property ignores. *)
type axis = Platform_axis | Sched_axis | Domains_axis

(** [project axes t] normalizes every axis not in [axes] to the
    default, so configs that a property cannot distinguish compare
    equal. *)
let project axes t =
  {
    platform =
      (if List.mem Platform_axis axes then t.platform else default.platform);
    sched = (if List.mem Sched_axis axes then t.sched else default.sched);
    domains = (if List.mem Domains_axis axes then t.domains else default.domains);
  }
