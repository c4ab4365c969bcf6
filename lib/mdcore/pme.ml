(** Smooth particle-mesh Ewald (Essmann et al. 1995).

    The reciprocal half of the Ewald sum: charges are spread onto a
    regular grid with 4th-order cardinal B-splines, transformed with
    {!Fft}, convolved with the Ewald influence function, and
    transformed back; energy comes from the k-space sum and per-atom
    forces from the gradient of the spline interpolation.

    Combined with {!Coulomb.ewald_real_*} for the short-range half,
    the self-energy term and the excluded-pair corrections, this is
    the full electrostatics used by the accuracy experiment. *)

(** B-spline interpolation order (GROMACS default pme_order = 4). *)
let order = 4

(* Cardinal B-splines by the standard recursion
   [M_n(u) = u/(n-1) M_{n-1}(u) + (n-u)/(n-1) M_{n-1}(u-1)] from M_2,
   unrolled to the order used so that no level boxes its result. *)
let[@inline] m2 u = if u < 0.0 || u > 2.0 then 0.0 else 1.0 -. Float.abs (u -. 1.0)

let[@inline] m3 u = (u /. 2.0 *. m2 u) +. ((3.0 -. u) /. 2.0 *. m2 (u -. 1.0))

let[@inline] m4 u = (u /. 3.0 *. m3 u) +. ((4.0 -. u) /. 3.0 *. m3 (u -. 1.0))

(** [spline u] is the order-4 B-spline value at [u]. *)
let spline u = m4 u

(** [spline_deriv u] is its derivative, [M3(u) - M3(u-1)]. *)
let[@inline] spline_deriv u = m3 u -. m3 (u -. 1.0)

type t = {
  grid : Fft.grid3;
  conv : Fft.grid3;  (** convolution workspace *)
  box : Box.t;
  beta : float;
  bsp_mod_x : float array;  (** |b(m)|^2 per dimension *)
  bsp_mod_y : float array;
  bsp_mod_z : float array;
  stencil : stencil;  (** one atom's spline stencil, reused per atom *)
}

(* The [order] grid points an atom touches along each axis, with the
   spline weights and derivatives there: filled per atom, so the
   spread and gather loops allocate nothing. *)
and stencil = {
  gx : int array;
  gy : int array;
  gz : int array;
  wx : float array;
  wy : float array;
  wz : float array;
  dx : float array;
  dy : float array;
  dz : float array;
}

let make_stencil () =
  let ints () = Array.make order 0 and floats () = Array.make order 0.0 in
  {
    gx = ints (); gy = ints (); gz = ints ();
    wx = floats (); wy = floats (); wz = floats ();
    dx = floats (); dy = floats (); dz = floats ();
  }

(* |b(m)|^2 for the smooth-PME Euler exponential spline. *)
let bsp_mod k =
  let data = Array.make k 0.0 in
  for m = 0 to k - 1 do
    let re = ref 0.0 and im = ref 0.0 in
    for j = 0 to order - 2 do
      let phi = 2.0 *. Float.pi *. float_of_int m *. float_of_int j /. float_of_int k in
      let w = spline (float_of_int (j + 1)) in
      re := !re +. (w *. cos phi);
      im := !im +. (w *. sin phi)
    done;
    let d2 = (!re *. !re) +. (!im *. !im) in
    data.(m) <- (if d2 < 1e-10 then 0.0 else 1.0 /. d2)
  done;
  (* interpolate over zeros of the denominator (even order, m = K/2) *)
  for m = 0 to k - 1 do
    if data.(m) = 0.0 then
      data.(m) <- (data.((m + k - 1) mod k) +. data.((m + 1) mod k)) /. 2.0
  done;
  data

(** [create ~grid_dim ~box ~beta] allocates a PME context with a cubic
    [grid_dim]^3 mesh. *)
let create ~grid_dim ~box ~beta =
  if beta <= 0.0 then invalid_arg "Pme.create: beta must be positive";
  {
    grid = Fft.create_grid3 grid_dim grid_dim grid_dim;
    conv = Fft.create_grid3 grid_dim grid_dim grid_dim;
    box;
    beta;
    bsp_mod_x = bsp_mod grid_dim;
    bsp_mod_y = bsp_mod grid_dim;
    bsp_mod_z = bsp_mod grid_dim;
    stencil = make_stencil ();
  }

(* Grid indices, spline weights and derivatives of one coordinate,
   written into [g], [w] and [d]. *)
let spread_axis ~len ~k x (g : int array) (w : float array) (d : float array) =
  let u = x /. len *. float_of_int k in
  let k0 = int_of_float (Float.floor u) in
  let f = u -. float_of_int k0 in
  (* grid points k0 - j for j = 0..order-1, weight M4(f + j) *)
  for j = 0 to order - 1 do
    g.(j) <- ((k0 - j) mod k + k) mod k;
    w.(j) <- m4 (f +. float_of_int j);
    d.(j) <- spline_deriv (f +. float_of_int j)
  done

(* the stencil of the atom at [(px, py, pz)] on [g] *)
let fill_stencil t (g : Fft.grid3) px py pz =
  let s = t.stencil in
  spread_axis ~len:t.box.Box.lx ~k:g.Fft.nx px s.gx s.wx s.dx;
  spread_axis ~len:t.box.Box.ly ~k:g.Fft.ny py s.gy s.wy s.dy;
  spread_axis ~len:t.box.Box.lz ~k:g.Fft.nz pz s.gz s.wz s.dz

(** [spread t ~pos ~charge ~n] deposits the [n] charges onto the grid
    (overwrites previous contents). *)
let spread t ~(pos : Fbuf.t) ~charge ~n =
  Fft.clear_grid3 t.grid;
  let g = t.grid in
  for i = 0 to n - 1 do
    let q = charge.(i) in
    if q <> 0.0 then begin
      let px = Box.wrap1 (Fbuf.unsafe_get pos (3 * i)) t.box.Box.lx in
      let py = Box.wrap1 (Fbuf.unsafe_get pos ((3 * i) + 1)) t.box.Box.ly in
      let pz = Box.wrap1 (Fbuf.unsafe_get pos ((3 * i) + 2)) t.box.Box.lz in
      fill_stencil t g px py pz;
      let s = t.stencil in
      for c = 0 to order - 1 do
        for b = 0 to order - 1 do
          for a = 0 to order - 1 do
            let idx = Fft.index g s.gx.(a) s.gy.(b) s.gz.(c) in
            g.Fft.re.(idx) <- g.Fft.re.(idx) +. (q *. s.wx.(a) *. s.wy.(b) *. s.wz.(c))
          done
        done
      done
    end
  done

let freq m k = if m <= k / 2 then m else m - k

(** [solve t] transforms the spread grid, applies the influence
    function and returns the reciprocal-space energy; the convolved
    grid (ready for force interpolation) is left in [t.conv]. *)
let solve t =
  let g = t.grid in
  Fft.fft3 ~inverse:false g;
  let vol = Box.volume t.box in
  let energy = ref 0.0 in
  let nx = g.Fft.nx and ny = g.Fft.ny and nz = g.Fft.nz in
  for mz = 0 to nz - 1 do
    for my = 0 to ny - 1 do
      for mx = 0 to nx - 1 do
        let idx = Fft.index g mx my mz in
        if mx = 0 && my = 0 && mz = 0 then begin
          t.conv.Fft.re.(idx) <- 0.0;
          t.conv.Fft.im.(idx) <- 0.0
        end
        else begin
          let fx = float_of_int (freq mx nx) /. t.box.Box.lx in
          let fy = float_of_int (freq my ny) /. t.box.Box.ly in
          let fz = float_of_int (freq mz nz) /. t.box.Box.lz in
          let m2 = (fx *. fx) +. (fy *. fy) +. (fz *. fz) in
          let b =
            t.bsp_mod_x.(mx) *. t.bsp_mod_y.(my) *. t.bsp_mod_z.(mz)
          in
          let factor =
            exp (-.Float.pi *. Float.pi *. m2 /. (t.beta *. t.beta))
            /. m2 *. b
            /. (2.0 *. Float.pi *. vol)
            *. Forcefield.ke
          in
          let sre = g.Fft.re.(idx) and sim = g.Fft.im.(idx) in
          energy := !energy +. (factor *. ((sre *. sre) +. (sim *. sim)));
          t.conv.Fft.re.(idx) <- factor *. sre;
          t.conv.Fft.im.(idx) <- factor *. sim
        end
      done
    done
  done;
  (* back-transform the convolved grid for force interpolation *)
  Fft.fft3 ~inverse:true t.conv;
  (* Essmann et al. eq. 4.7: E = sum_m factor(m) |Q^(m)|^2, the 1/(2 pi V)
     prefactor is already inside [factor] *)
  !energy

(** [gather_forces t ~pos ~charge ~n ~force] adds the reciprocal-space
    force on every atom into the flat [force] array.  Must follow
    {!solve}. *)
let gather_forces t ~(pos : Fbuf.t) ~charge ~n ~(force : Fbuf.t) =
  let g = t.conv in
  let kx = float_of_int g.Fft.nx /. t.box.Box.lx in
  let ky = float_of_int g.Fft.ny /. t.box.Box.ly in
  let kz = float_of_int g.Fft.nz /. t.box.Box.lz in
  for i = 0 to n - 1 do
    let q = charge.(i) in
    if q <> 0.0 then begin
      let px = Box.wrap1 (Fbuf.unsafe_get pos (3 * i)) t.box.Box.lx in
      let py = Box.wrap1 (Fbuf.unsafe_get pos ((3 * i) + 1)) t.box.Box.ly in
      let pz = Box.wrap1 (Fbuf.unsafe_get pos ((3 * i) + 2)) t.box.Box.lz in
      fill_stencil t g px py pz;
      let s = t.stencil in
      let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
      for c = 0 to order - 1 do
        for b = 0 to order - 1 do
          for a = 0 to order - 1 do
            let v = g.Fft.re.(Fft.index g s.gx.(a) s.gy.(b) s.gz.(c)) in
            fx := !fx +. (s.dx.(a) *. s.wy.(b) *. s.wz.(c) *. v);
            fy := !fy +. (s.wx.(a) *. s.dy.(b) *. s.wz.(c) *. v);
            fz := !fz +. (s.wx.(a) *. s.wy.(b) *. s.dz.(c) *. v)
          done
        done
      done;
      (* F = -dE/dr = -2 q (K/L) sum_grid M4' w w conv: the factor 2
         comes from the gradient of |Q^|^2, K/L from du/dx *)
      force.{3 * i} <- force.{3 * i} -. (2.0 *. q *. kx *. !fx);
      force.{(3 * i) + 1} <- force.{(3 * i) + 1} -. (2.0 *. q *. ky *. !fy);
      force.{(3 * i) + 2} <- force.{(3 * i) + 2} -. (2.0 *. q *. kz *. !fz)
    end
  done
