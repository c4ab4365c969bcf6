(** Water-box workload generator: a periodic box of rigid SPC/E water
    at liquid density, reproducible from its seed — the paper's
    benchmark input at any particle count. *)

(** Number density of liquid water in molecules/nm^3. *)
val molecules_per_nm3 : float

(** [box_edge n_molecules] is the cubic box edge (nm) that puts
    [n_molecules] waters at liquid density. *)
val box_edge : int -> float

(** [build ?temp ~molecules ~seed ()] is a thermalized water box of
    [molecules] rigid SPC/E waters (default 300 K). *)
val build : ?temp:float -> molecules:int -> seed:int -> unit -> Md_state.t
