(** Large-buffer output channel (Section 3.7).

    The original code called [fwrite] per element; the optimized path
    batches output through a 20 MB user-space buffer and issues few
    large [write] calls.  The writer counts flushes so tests and the
    I/O cost model can observe the syscall reduction. *)

type t

(** The paper's buffer size: 20 MB. *)
val default_capacity : int

(** [create ?capacity sink] is an empty writer flushing to [sink]. *)
val create : ?capacity:int -> Buffer.t -> t

(** [flush t] pushes buffered bytes to the sink (one "write call"). *)
val flush : t -> unit

(** [write_bytes t src len] appends [len] bytes of [src]. *)
val write_bytes : t -> Bytes.t -> int -> unit

(** [write_string t s] appends a string. *)
val write_string : t -> string -> unit

(** [write_char t c] appends one byte. *)
val write_char : t -> char -> unit

(** [write_fixed t x ~decimals] appends a fixed-point float using
    {!Fast_format} without intermediate strings. *)
val write_fixed : t -> float -> decimals:int -> unit

(** [flushes t] is the number of write calls issued so far. *)
val flushes : t -> int

(** [bytes_written t] is the total payload size so far (flushed or
    still buffered). *)
val bytes_written : t -> int
