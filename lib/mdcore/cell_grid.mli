(** Spatial binning of points in a periodic box, used by the
    neighbour-search kernels: all neighbours of a point live in the 27
    cells around it when cells are at least the search radius wide. *)

type t

(** [build box ~min_cell ~n ~point] bins [n] points (given by the
    [point] function) into cells of edge at least [min_cell]. *)
val build : Box.t -> min_cell:float -> n:int -> point:(int -> Vec3.t) -> t

(** [n_cells t] is the total number of cells. *)
val n_cells : t -> int

(** [cell_of_point t p] is the flat cell index containing point [p]. *)
val cell_of_point : t -> Vec3.t -> int

(** [iter_cell t c f] applies [f] to every point in flat cell [c]. *)
val iter_cell : t -> int -> (int -> unit) -> unit

(** [iter_neighbourhood t p f] applies [f] to every point in the 27
    cells around the cell containing [p] (each point once, even in tiny
    grids where neighbourhoods alias). *)
val iter_neighbourhood : t -> Vec3.t -> (int -> unit) -> unit
