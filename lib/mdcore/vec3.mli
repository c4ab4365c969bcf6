(** 3-component vectors (double precision).

    Used throughout the reference MD engine; the optimized kernels use
    flat arrays instead, and tests compare the two. *)

type t = { x : float; y : float; z : float }

(** The zero vector. *)
val zero : t

(** [make x y z] builds a vector. *)
val make : float -> float -> float -> t

(** [add a b] is the component-wise sum. *)
val add : t -> t -> t

(** [sub a b] is the component-wise difference. *)
val sub : t -> t -> t

(** [scale s a] multiplies every component by [s]. *)
val scale : float -> t -> t

(** [neg a] is [-a]. *)
val neg : t -> t

(** [dot a b] is the scalar product. *)
val dot : t -> t -> float

(** [cross a b] is the vector product. *)
val cross : t -> t -> t

(** [norm2 a] is the squared Euclidean norm. *)
val norm2 : t -> float

(** [norm a] is the Euclidean norm. *)
val norm : t -> float

(** [normalize a] is the unit vector along [a]; raises on zero. *)
val normalize : t -> t

(** [dist2 a b] is the squared distance between two points. *)
val dist2 : t -> t -> float

(** [dist a b] is the distance between two points. *)
val dist : t -> t -> float

(** [get arr i] reads vector [i] from a flat xyz-interleaved buffer. *)
val get : Fbuf.t -> int -> t

(** [set arr i v] stores [v] as vector [i] of a flat buffer. *)
val set : Fbuf.t -> int -> t -> unit

(** [axpy arr i s v] adds [s*v] to vector [i] of a flat buffer. *)
val axpy : Fbuf.t -> int -> float -> t -> unit
