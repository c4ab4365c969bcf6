(** Spatial binning of points in a periodic box.

    Used by the neighbour-search (pair-list generation) kernels: points
    are hashed into cells at least as large as the search radius so
    that all neighbours of a point live in the 27 surrounding cells. *)

type t = {
  box : Box.t;
  nx : int;
  ny : int;
  nz : int;
  cell_size : Vec3.t;
  heads : int array;  (** cell -> first point index, -1 = empty *)
  next : int array;  (** point -> next point in same cell, -1 = end *)
}

(** [dims box target] is the cell-count triple for cells of edge at
    least [target] (at least one cell per dimension). *)
let dims (box : Box.t) target =
  let d l = max 1 (int_of_float (l /. target)) in
  (d box.Box.lx, d box.Box.ly, d box.Box.lz)

(** [cell_index t ix iy iz] flattens periodic cell coordinates. *)
let cell_index t ix iy iz =
  let w n i = ((i mod n) + n) mod n in
  let ix = w t.nx ix and iy = w t.ny iy and iz = w t.nz iz in
  (((iz * t.ny) + iy) * t.nx) + ix

(** [cell_of_point t p] is the flat cell index containing point [p]. *)
let cell_of_point t (p : Vec3.t) =
  let f x l n = int_of_float (Float.floor (x /. l *. float_of_int n)) in
  cell_index t
    (f p.Vec3.x t.box.Box.lx t.nx)
    (f p.Vec3.y t.box.Box.ly t.ny)
    (f p.Vec3.z t.box.Box.lz t.nz)

(** [build box ~min_cell points] bins [points] (a function from index
    to wrapped position and a count) into cells of edge >= [min_cell]. *)
let build (box : Box.t) ~min_cell ~n ~point =
  if min_cell <= 0.0 then invalid_arg "Cell_grid.build: min_cell must be positive";
  let nx, ny, nz = dims box min_cell in
  let t =
    {
      box;
      nx;
      ny;
      nz;
      cell_size =
        Vec3.make
          (box.Box.lx /. float_of_int nx)
          (box.Box.ly /. float_of_int ny)
          (box.Box.lz /. float_of_int nz);
      heads = Array.make (nx * ny * nz) (-1);
      next = Array.make (max n 1) (-1);
    }
  in
  for i = 0 to n - 1 do
    let c = cell_of_point t (Box.wrap box (point i)) in
    t.next.(i) <- t.heads.(c);
    t.heads.(c) <- i
  done;
  t

(** [n_cells t] is the total number of cells. *)
let n_cells t = t.nx * t.ny * t.nz

(** [iter_cell t c f] applies [f] to every point in flat cell [c]. *)
let iter_cell t c f =
  let i = ref t.heads.(c) in
  while !i >= 0 do
    f !i;
    i := t.next.(!i)
  done

(* The last of the offsets -1, 0, +1 that reaches a cell not already
   reached along an axis of [n] cells: with fewer than three cells the
   offsets wrap onto each other, and only the first of each equal set
   is walked. *)
let last_offset n = if n >= 3 then 1 else if n = 2 then 0 else -1

(** [iter_neighbourhood t p f] applies [f] to every point in the 27
    cells around the cell containing [p] (each point once, even in tiny
    grids where neighbourhoods alias).  Cells are walked in
    z-y-x offset order.  A cell reached twice is reached through
    aliased offsets on some axis, so skipping the aliased offsets per
    axis visits each cell once, at its first position in that order,
    with no set of visited cells. *)
let iter_neighbourhood t (p : Vec3.t) f =
  let fidx x l n = int_of_float (Float.floor (x /. l *. float_of_int n)) in
  let p = Box.wrap t.box p in
  let cx = fidx p.Vec3.x t.box.Box.lx t.nx
  and cy = fidx p.Vec3.y t.box.Box.ly t.ny
  and cz = fidx p.Vec3.z t.box.Box.lz t.nz in
  for dz = -1 to last_offset t.nz do
    for dy = -1 to last_offset t.ny do
      for dx = -1 to last_offset t.nx do
        iter_cell t (cell_index t (cx + dx) (cy + dy) (cz + dz)) f
      done
    done
  done
