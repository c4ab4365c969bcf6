(** Pair-list generation on the CPEs (Section 3.5).

    Each CPE builds the neighbour lists of a block of i-clusters.
    Because list lengths differ, a CPE cannot know where its first list
    will land in the final array, so every CPE streams its lists into a
    private temporary region of main memory; the lists are then
    gathered (with a prefix sum over per-cluster counts) into the
    contiguous pair list.

    The candidate loop interleaves three access streams — the
    i-cluster's package, grid-cell metadata, and candidate j-packages —
    which is exactly the pattern that thrashes a direct-mapped cache
    (the paper measured >85% misses) and that a two-way associative
    cache fixes (~10%). The two kinds are the same {!Swcache.Read_cache}
    with one and with two ways, so the experiment can be reproduced. *)

module K = Kernel_common
module Cluster = Mdcore.Cluster
module Cell_grid = Mdcore.Cell_grid
module Pair_list = Mdcore.Pair_list
module Vec3 = Mdcore.Vec3
module Box = Mdcore.Box
module Cost = Swarch.Cost
module Dma = Swarch.Dma

type cache_kind = Direct_mapped | Two_way

(** LDM output buffer: j-indices are staged here and flushed to the
    CPE's temporary region at the platform's bandwidth-saturating DMA
    granule (2 KB on the SW26010, per Table 2). *)
let out_buffer_bytes cfg = Dma.saturating_bytes cfg

type nsearch_stats = {
  miss_ratio : float;  (** candidate-stream cache miss ratio *)
  candidates : int;  (** candidate cluster pairs examined *)
  accepted : int;  (** pairs kept in the list *)
}

(* The shared cached address space: cluster coordinate packages
   followed by the per-cluster bounding-box metadata the list builder
   reads for every candidate.  Both arrays are indexed by the same
   cluster id, and (as happened on the real machine) their bases are
   congruent modulo the cache capacity, so in a direct-mapped cache
   the two streams evict each other on every access -- the thrashing
   of Section 3.5 that two-way associativity cures.  The capacity is
   the package budget of the platform's LDM (three quarters of it, as
   for the force kernels' read cache: 512 packages on the SW26010). *)
let cache_capacity_elts (cfg : Swarch.Config.t) =
  max 4 (cfg.ldm_bytes * 3 / 4 / Package.bytes)

let build_address_space sys =
  let pkgs = sys.K.pkg_aos in
  let nc = sys.K.n_clusters in
  let cap = cache_capacity_elts sys.K.cfg in
  let nc_pad = (nc + cap - 1) / cap * cap in
  let total = (nc_pad + nc) * Package.floats in
  let space = Array.make total 0.0 in
  Array.blit pkgs 0 space 0 (Array.length pkgs);
  (* bounding-sphere metadata: centroid + radius per cluster *)
  for c = 0 to nc - 1 do
    let base = (nc_pad + c) * Package.floats in
    let ctr = Mdcore.Cluster.centroid sys.K.cl c in
    space.(base) <- ctr.Vec3.x;
    space.(base + 1) <- ctr.Vec3.y;
    space.(base + 2) <- ctr.Vec3.z;
    space.(base + 3) <- Mdcore.Cluster.radius sys.K.cl c
  done;
  (space, nc_pad)

(* Minimum-image fold of one displacement component, as {!Box.mi1}. *)
let[@inline] mi d l = d -. (l *. Float.round (d /. l))

(* Flops of the member-distance refinement of a cluster pair: 9 per
   member pair.  Two full clusters are the common case, so that charge
   is computed once instead of boxed afresh per candidate. *)
let refine_full = float_of_int (Cluster.size * Cluster.size) *. 9.0

let refine_flops ni nj =
  if ni = Cluster.size && nj = Cluster.size then refine_full
  else float_of_int (ni * nj) *. 9.0

(** [run sys cg ~kind ~rlist] rebuilds the cluster pair list on the
    CPEs through a software cache of the given associativity, charging
    all DMA/compute costs, and returns the list (identical to
    {!Mdcore.Pair_list.build}'s) plus cache statistics. *)
let run sys (cg : Swarch.Core_group.t) ~kind ~rlist =
  let cfg = sys.K.cfg in
  let cl = sys.K.cl in
  let nc = sys.K.n_clusters in
  let box = sys.K.box in
  (* the MPE bins cluster centroids into cells (serial, cheap) *)
  let grid =
    Cell_grid.build box ~min_cell:rlist ~n:nc ~point:(fun c -> Cluster.centroid cl c)
  in
  Swarch.Mpe.charge_flops cg.Swarch.Core_group.mpe (float_of_int (8 * nc));
  Swarch.Mpe.charge_mem cg.Swarch.Core_group.mpe (float_of_int (16 * nc));
  let space, nc_pad = build_address_space sys in
  let n_cpes = Array.length cg.Swarch.Core_group.cpes in
  let lists = Array.make nc [] in
  let agg = Swcache.Stats.create () in
  (* per-CPE counters and cache stats, folded into the aggregates in
     CPE-id order after the (possibly domain-sharded) walk — counts
     are integers, so any order would do, but the ordered merge keeps
     the discipline uniform across the kernels *)
  let l_stats = Array.make n_cpes (None : Swcache.Stats.t option) in
  let l_candidates = Array.make n_cpes 0 in
  let l_accepted = Array.make n_cpes 0 in
  let rl2 = rlist *. rlist in
  let run_cpe (env : Swoffload.Offload.env) =
      let cpe = env.Swoffload.Offload.cpe in
      let cost = cpe.Swarch.Cpe.cost in
      let candidates = ref 0 and accepted = ref 0 in
      let lo = env.Swoffload.Offload.lo and hi = env.Swoffload.Offload.hi in
      begin
        let ldm = cpe.Swarch.Cpe.ldm in
        let out_bytes = out_buffer_bytes cfg in
        Swoffload.Offload.scratch env out_bytes;
        (* one shared cache over the combined address space; both
           associativities span the same LDM capacity: depth follows
           the platform (256 two-package lines on the SW26010's 64 KB
           LDM, as 256 sets or 128 two-way sets).  The block driver
           resets the LDM after the slice, so the cache is not
           released here. *)
        let cache =
          Swcache.Read_cache.create cfg cost ~ldm
            ~ways:(match kind with Direct_mapped -> 1 | Two_way -> 2)
            ~backing:space ~elt_floats:Package.floats ~line_elts:2
            ~n_lines:(cache_capacity_elts cfg / 2) ()
        in
        let touch i = ignore (Swcache.Read_cache.touch cache i) in
        let out_fill = ref 0 in
        let emit () =
          (* stage a j index; flush the LDM buffer when full *)
          out_fill := !out_fill + 4;
          if !out_fill >= out_bytes then begin
            Dma.put cfg cost ~bytes:out_bytes;
            out_fill := 0
          end
        in
        (* The candidate and member loops read centroids, radii and
           package coordinates straight from their arrays and inline
           the minimum-image distance (per component, then
           x^2 + y^2 + z^2, as {!Box.dist2} computes it): a call into
           another module with float arguments would box them. *)
        let centroids = cl.Cluster.centroids and radii = cl.Cluster.radii in
        let fpp = Package.floats_per_particle in
        for ci = lo to hi - 1 do
          touch ci;
          let pi = Cluster.centroid cl ci and ri = radii.(ci) in
          let ni = Cluster.count cl ci in
          let ioff = ci * Package.floats in
          let acc = ref [] in
          Cell_grid.iter_neighbourhood grid pi (fun cj ->
              if cj >= ci then begin
                incr candidates;
                (* bounding-box metadata stream + coordinate stream:
                   same index, aliasing bases *)
                touch (nc_pad + cj);
                touch cj;
                Cost.flops cost 10.0;
                let reach = rlist +. ri +. radii.(cj) in
                let dx = mi (pi.Vec3.x -. centroids.{3 * cj}) box.Box.lx
                and dy = mi (pi.Vec3.y -. centroids.{(3 * cj) + 1}) box.Box.ly
                and dz = mi (pi.Vec3.z -. centroids.{(3 * cj) + 2}) box.Box.lz in
                if (dx *. dx) +. (dy *. dy) +. (dz *. dz) <= reach *. reach
                then begin
                  (* exact member-distance refinement *)
                  let nj = Cluster.count cl cj in
                  Cost.flops cost (refine_flops ni nj);
                  let joff = cj * Package.floats in
                  let close = ref false in
                  for mi_ = 0 to ni - 1 do
                    let a = ioff + (mi_ * fpp) in
                    for mj = 0 to nj - 1 do
                      if not !close then begin
                        let b = joff + (mj * fpp) in
                        let dx = mi (space.(a) -. space.(b)) box.Box.lx
                        and dy = mi (space.(a + 1) -. space.(b + 1)) box.Box.ly
                        and dz = mi (space.(a + 2) -. space.(b + 2)) box.Box.lz in
                        if (dx *. dx) +. (dy *. dy) +. (dz *. dz) <= rl2 then
                          close := true
                      end
                    done
                  done;
                  if !close then begin
                    incr accepted;
                    acc := cj :: !acc;
                    emit ()
                  end
                end
              end);
          lists.(ci) <- List.sort compare !acc
        done;
        if !out_fill > 0 then Dma.put cfg cost ~bytes:!out_fill;
        l_stats.(cpe.Swarch.Cpe.id) <- Some (Swcache.Read_cache.stats cache)
      end;
      l_candidates.(cpe.Swarch.Cpe.id) <- !candidates;
      l_accepted.(cpe.Swarch.Cpe.id) <- !accepted
  in
  (* the mesh walk through the offload driver's block shape: stripes
     over the configured domains, per-CPE trace track, fault guard and
     LDM reset all supplied by the driver; each CPE fills only its own
     [lists] block and counter slots *)
  Swoffload.Offload.block ~cg ~phase:"nsearch"
    ~partition:(K.partition nc n_cpes)
    run_cpe;
  let candidates = ref 0 and accepted = ref 0 in
  for id = 0 to n_cpes - 1 do
    (match l_stats.(id) with
    | Some s ->
        agg.Swcache.Stats.hits <- agg.Swcache.Stats.hits + s.Swcache.Stats.hits;
        agg.Swcache.Stats.misses <-
          agg.Swcache.Stats.misses + s.Swcache.Stats.misses
    | None -> ());
    candidates := !candidates + l_candidates.(id);
    accepted := !accepted + l_accepted.(id)
  done;
  (* gather step: the MPE prefix-sums the counts and the lists are
     copied from the temporary regions into the final array *)
  Swarch.Mpe.charge_flops cg.Swarch.Core_group.mpe (float_of_int nc);
  let total = Array.fold_left (fun s l -> s + List.length l) 0 lists in
  Swarch.Mpe.charge_mem cg.Swarch.Core_group.mpe (float_of_int (2 * 4 * total));
  let ranges = Array.make (nc + 1) 0 in
  let cj = Array.make (max total 1) 0 in
  let k = ref 0 in
  Array.iteri
    (fun ci l ->
      ranges.(ci) <- !k;
      List.iter
        (fun c ->
          cj.(!k) <- c;
          incr k)
        l)
    lists;
  ranges.(nc) <- !k;
  let pl = { Pair_list.rlist; n_clusters = nc; ranges; cj = Array.sub cj 0 total } in
  let stats =
    {
      miss_ratio = Swcache.Stats.miss_ratio agg;
      candidates = !candidates;
      accepted = !accepted;
    }
  in
  (pl, stats)
