(** Large-buffer output channel (Section 3.7).

    The original code called [fwrite] per element; the optimized path
    batches output through a 20 MB user-space buffer and issues few
    large [write] calls.  The writer counts flushes so tests and the
    I/O cost model can observe the syscall reduction. *)

type t = {
  buf : Bytes.t;
  mutable fill : int;
  sink : Buffer.t;
  mutable flushes : int;  (** simulated write(2) calls issued *)
  mutable bytes_written : int;  (** total payload bytes *)
}

(** The paper's buffer size: 20 MB. *)
let default_capacity = 20 * 1024 * 1024

(** [create ?capacity sink] is an empty writer flushing to [sink]. *)
let create ?(capacity = default_capacity) sink =
  if capacity <= 0 then invalid_arg "Buffered_writer.create: capacity";
  { buf = Bytes.create capacity; fill = 0; sink; flushes = 0; bytes_written = 0 }

(** [flush t] pushes buffered bytes to the sink (one "write call"). *)
let flush t =
  if t.fill > 0 then begin
    Buffer.add_subbytes t.sink t.buf 0 t.fill;
    t.flushes <- t.flushes + 1;
    t.fill <- 0
  end

(** [write_bytes t src len] appends [len] bytes of [src]. *)
let write_bytes t src len =
  if len > Bytes.length t.buf then begin
    flush t;
    Buffer.add_subbytes t.sink src 0 len;
    t.flushes <- t.flushes + 1;
    t.bytes_written <- t.bytes_written + len
  end
  else begin
    if t.fill + len > Bytes.length t.buf then flush t;
    Bytes.blit src 0 t.buf t.fill len;
    t.fill <- t.fill + len;
    t.bytes_written <- t.bytes_written + len
  end

(** [write_string t s] appends a string. *)
let write_string t s = write_bytes t (Bytes.of_string s) (String.length s)

(** [write_char t c] appends one byte. *)
let write_char t c =
  if t.fill >= Bytes.length t.buf then flush t;
  Bytes.set t.buf t.fill c;
  t.fill <- t.fill + 1;
  t.bytes_written <- t.bytes_written + 1

(** [write_fixed t x ~decimals] appends a fixed-point float using
    {!Fast_format} without intermediate strings. *)
let write_fixed t x ~decimals =
  if t.fill + 32 > Bytes.length t.buf then flush t;
  let fill' = Fast_format.write_fixed t.buf t.fill x ~decimals in
  t.bytes_written <- t.bytes_written + (fill' - t.fill);
  t.fill <- fill'

(** [flushes t] is the number of write calls issued so far. *)
let flushes t = t.flushes

(** [bytes_written t] is the total payload size so far (flushed or
    still buffered). *)
let bytes_written t = t.bytes_written
