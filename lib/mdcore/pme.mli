(** Smooth particle-mesh Ewald (Essmann et al. 1995): the reciprocal
    half of the Ewald sum.  Charges are spread onto a regular grid with
    4th-order B-splines, transformed with {!Fft}, convolved with the
    influence function and transformed back; energy comes from the
    k-space sum and per-atom forces from the spline gradient. *)

(** B-spline interpolation order (GROMACS default pme_order = 4). *)
val order : int

(** [spline u] is the order-4 cardinal B-spline value at [u]. *)
val spline : float -> float

(** [spline_deriv u] is its derivative. *)
val spline_deriv : float -> float

(** One atom's spline stencil — grid indices, weights and derivatives
    per axis — refilled for every atom by {!spread} and
    {!gather_forces}, so their loops allocate nothing.  A context is
    therefore used by one domain at a time. *)
type stencil

type t = {
  grid : Fft.grid3;
  conv : Fft.grid3;  (** convolution workspace *)
  box : Box.t;
  beta : float;
  bsp_mod_x : float array;
  bsp_mod_y : float array;
  bsp_mod_z : float array;
  stencil : stencil;
}

(** [create ~grid_dim ~box ~beta] allocates a PME context with a cubic
    [grid_dim]^3 mesh. *)
val create : grid_dim:int -> box:Box.t -> beta:float -> t

(** [spread t ~pos ~charge ~n] deposits the [n] charges onto the grid
    (overwrites previous contents). *)
val spread : t -> pos:Fbuf.t -> charge:float array -> n:int -> unit

(** [solve t] transforms the spread grid, applies the influence
    function and returns the reciprocal-space energy; the convolved
    grid (ready for force interpolation) is left in [t.conv]. *)
val solve : t -> float

(** [gather_forces t ~pos ~charge ~n ~force] adds the reciprocal-space
    force on every atom into the flat [force] array.  Must follow
    {!solve}. *)
val gather_forces :
  t -> pos:Fbuf.t -> charge:float array -> n:int -> force:Fbuf.t -> unit
