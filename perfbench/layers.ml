(** Host-clock spans recorded around calls into the system's layers.

    The benchmark times layers only from outside: each span wraps one
    call into a library's public functions.  Spans stay in memory while
    the run lasts (name, start, end, parent and heap words allocated)
    and are written out when it ends.  When the recorder is off, [span]
    is a direct call, so untraced runs pay nothing for it. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span, [-1] at top level *)
  root : int;  (** index of the outermost enclosing span *)
  start : float;  (** seconds since {!enable} *)
  mutable stop : float;
  mutable words : float;  (** heap words allocated while open *)
}

let on = ref false
let origin = ref 0.0
let recorded : span list ref = ref []  (* newest first *)
let next_id = ref 0
let open_spans : (int * span) list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let now () = Unix.gettimeofday () -. !origin

(* fresh allocation: minor plus major, less what the minor heap promoted *)
let heap () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(** [enable ()] drops any earlier spans and counters and starts
    recording. *)
let enable () =
  recorded := [];
  next_id := 0;
  open_spans := [];
  Hashtbl.reset counters;
  origin := Unix.gettimeofday ();
  on := true

(** [span name f] runs [f ()] inside a span called [name]. *)
let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    let parent, root =
      match !open_spans with [] -> (-1, id) | (p, s) :: _ -> (p, s.root)
    in
    let w0 = heap () in
    let s = { name; parent; root; start = now (); stop = Float.nan; words = 0.0 } in
    incr next_id;
    recorded := s :: !recorded;
    open_spans := (id, s) :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        s.words <- heap () -. w0;
        open_spans := List.tl !open_spans)
      f
  end

(** [paused f] runs [f ()] with recording off: the harness times the
    real op itself, so spans and counters inside it are not kept. *)
let paused f =
  if not !on then f ()
  else begin
    on := false;
    Fun.protect ~finally:(fun () -> on := true) f
  end

(** [count name v] adds [v] to the counter [name] (a no-op when off). *)
let count name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let spans () = Array.of_list (List.rev !recorded)
let dur s = s.stop -. s.start

type layer = {
  self_s : float;  (** span time not covered by child spans *)
  self_words : float;  (** allocation not covered by child spans *)
}

(** [summary ()] gives, per span name, the self time and self allocation
    summed over every span of that name and
    divided by the number of top-level spans that share its root's name
    — so a layer inside each mirrored op reads "per op", and one inside
    each set-up "per set-up". *)
let summary () =
  let a = spans () in
  let self = Array.map dur a in
  let words = Array.map (fun s -> s.words) a in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        self.(s.parent) <- self.(s.parent) -. dur s;
        words.(s.parent) <- words.(s.parent) -. s.words
      end)
    a;
  let per_root = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      if s.parent < 0 then
        Hashtbl.replace per_root s.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_root s.name)))
    a;
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n = float_of_int (Hashtbl.find per_root a.(s.root).name) in
      let l =
        Option.value ~default:{ self_s = 0.0; self_words = 0.0 }
          (Hashtbl.find_opt totals s.name)
      in
      Hashtbl.replace totals s.name
        {
          self_s = l.self_s +. (self.(i) /. n);
          self_words = l.self_words +. (words.(i) /. n);
        })
    a;
  totals

(** [write_json path] writes every recorded span as a JSON array of
    [{name, start, end, parent, alloc_words}] (seconds since {!enable}). *)
let write_json path =
  let module J = Swtrace.Json in
  let doc =
    J.Arr
      (Array.to_list
         (Array.map
            (fun s ->
              J.Obj
                [
                  ("name", J.Str s.name);
                  ("start", J.Num s.start);
                  ("end", J.Num s.stop);
                  ("parent", J.Num (float_of_int s.parent));
                  ("alloc_words", J.Num s.words);
                ])
            (spans ())))
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string doc))
