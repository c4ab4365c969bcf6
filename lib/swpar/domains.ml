(** The runtime's domain-count knob.

    One process-wide setting, chosen once at the CLI boundary
    ([--domains N]) and read by every {!Pool} entry point.  The count
    is the {e total} parallelism: N = 1 means everything runs inline on
    the calling domain (no pool, no synchronization), which is also the
    deterministic reference every other count must reproduce bit for
    bit.

    A domain-local flag marks execution inside a parallel section;
    {!Pool} consults it so nested parallel calls (a shard whose work
    itself opens a parallel section) degrade to the inline path instead
    of oversubscribing the machine or deadlocking the fixed pool. *)

let configured = ref 1

(** [set n] installs the domain count ([n >= 1]); takes effect on the
    next parallel section. *)
let set n =
  if n < 1 then invalid_arg "Swpar.Domains.set: count must be >= 1";
  configured := n

(** [get ()] is the configured domain count. *)
let get () = !configured

(* Domain-local: [true] while the current domain is executing a shard
   of someone else's parallel section. *)
let in_parallel_key = Domain.DLS.new_key (fun () -> false)

(** [in_parallel ()] tests whether the calling domain is already inside
    a parallel section (nested sections must run inline). *)
let in_parallel () = Domain.DLS.get in_parallel_key

let set_in_parallel v = Domain.DLS.set in_parallel_key v
