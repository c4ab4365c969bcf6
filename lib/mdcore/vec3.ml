(** 3-component vectors (double precision).

    Used throughout the reference MD engine; the optimized kernels use
    flat arrays instead, and tests compare the two. *)

type t = { x : float; y : float; z : float }

(** The zero vector. *)
let zero = { x = 0.0; y = 0.0; z = 0.0 }

(** [make x y z] builds a vector. *)
let make x y z = { x; y; z }

(** [add a b] is the component-wise sum. *)
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }

(** [sub a b] is the component-wise difference. *)
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }

(** [scale s a] multiplies every component by [s]. *)
let scale s a = { x = s *. a.x; y = s *. a.y; z = s *. a.z }

(** [neg a] is [-a]. *)
let neg a = scale (-1.0) a

(** [dot a b] is the scalar product. *)
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

(** [cross a b] is the vector product. *)
let cross a b =
  {
    x = (a.y *. b.z) -. (a.z *. b.y);
    y = (a.z *. b.x) -. (a.x *. b.z);
    z = (a.x *. b.y) -. (a.y *. b.x);
  }

(** [norm2 a] is the squared Euclidean norm. *)
let norm2 a = dot a a

(** [norm a] is the Euclidean norm. *)
let norm a = sqrt (norm2 a)

(** [normalize a] is the unit vector along [a]; raises on the zero
    vector. *)
let normalize a =
  let n = norm a in
  if n <= 0.0 then invalid_arg "Vec3.normalize: zero vector";
  scale (1.0 /. n) a

(** [dist2 a b] is the squared distance between two points. *)
let dist2 a b = norm2 (sub a b)

(** [dist a b] is the distance between two points. *)
let dist a b = sqrt (dist2 a b)

(** [get arr i] reads vector [i] from a flat xyz-interleaved buffer. *)
let get (arr : Fbuf.t) i =
  { x = arr.{3 * i}; y = arr.{(3 * i) + 1}; z = arr.{(3 * i) + 2} }

(** [set arr i v] stores [v] as vector [i] of a flat buffer. *)
let set (arr : Fbuf.t) i v =
  arr.{3 * i} <- v.x;
  arr.{(3 * i) + 1} <- v.y;
  arr.{(3 * i) + 2} <- v.z

(** [axpy arr i s v] adds [s*v] to vector [i] of a flat buffer. *)
let axpy (arr : Fbuf.t) i s v =
  arr.{3 * i} <- arr.{3 * i} +. (s *. v.x);
  arr.{(3 * i) + 1} <- arr.{(3 * i) + 1} +. (s *. v.y);
  arr.{(3 * i) + 2} <- arr.{(3 * i) + 2} +. (s *. v.z)
