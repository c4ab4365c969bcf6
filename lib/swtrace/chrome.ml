(** Chrome trace_event exporter.

    Serializes a recorded trace into the JSON object format consumed by
    Perfetto and [chrome://tracing]: spans become complete events
    ([ph:"X"]), counters [ph:"C"], instants [ph:"i"], and per-track
    metadata names the lanes.  Timestamps are exported in microseconds
    of simulated time. *)

let us t = t *. 1e6
let pid = 0

let args_json args =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) args)

let base ~name ~ph ~track ~t rest =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str ph);
       ("ts", Json.Num (us t));
       ("pid", Json.Num (float_of_int pid));
       ("tid", Json.Num (float_of_int (Track.index track)));
     ]
    @ rest)

let json_of_event (e : Event.t) =
  let cat = if e.Event.cat = "" then "default" else e.Event.cat in
  match e.Event.kind with
  | Event.Span ->
      base ~name:e.Event.name ~ph:"X" ~track:e.Event.track ~t:e.Event.t
        [
          ("cat", Json.Str cat);
          ("dur", Json.Num (us e.Event.dur));
          ("args", args_json e.Event.args);
        ]
  | Event.Counter ->
      base ~name:e.Event.name ~ph:"C" ~track:e.Event.track ~t:e.Event.t
        [
          ("cat", Json.Str cat);
          ("args", Json.Obj [ (e.Event.name, Json.Num e.Event.value) ]);
        ]
  | Event.Instant ->
      base ~name:e.Event.name ~ph:"i" ~track:e.Event.track ~t:e.Event.t
        [
          ("cat", Json.Str cat);
          ("s", Json.Str "t");
          ("args", args_json e.Event.args);
        ]

(** Metadata events: process name plus one thread name and sort index
    per track that appears in the event list. *)
let metadata events =
  let seen = Array.make (Track.count ()) false in
  List.iter (fun (e : Event.t) -> seen.(Track.index e.Event.track) <- true) events;
  let meta name tid value =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Num (float_of_int pid));
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ value ]);
      ]
  in
  let process =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num (float_of_int pid));
        ("args", Json.Obj [ ("name", Json.Str "SW26010 core group (simulated)") ]);
      ]
  in
  let tracks = ref [] in
  for i = Track.count () - 1 downto 0 do
    if seen.(i) then
      tracks :=
        meta "thread_name" i ("name", Json.Str (Track.name (Track.of_index i)))
        :: meta "thread_sort_index" i ("sort_index", Json.Num (float_of_int i))
        :: !tracks
  done;
  process :: !tracks

(* [emit out events] serializes the trace document
   [{"traceEvents":[metadata..., events...],"displayTimeUnit":"ms",
   "otherData":{"clock":"simulated"}}] one trace event at a time: each
   event is printed into one reused buffer, which [out] consumes before
   the next event is printed.  No tree or string of the whole document
   is built, so exporting a large trace holds one event at a time. *)
let emit (out : Buffer.t -> unit) events =
  let buf = Buffer.create 256 in
  let first = ref true in
  let item v =
    Buffer.clear buf;
    if not !first then Buffer.add_char buf ',';
    first := false;
    Json.to_buffer buf v;
    out buf
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  out buf;
  List.iter item (metadata events);
  List.iter (fun e -> item (json_of_event e)) events;
  Buffer.clear buf;
  Buffer.add_string buf
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"simulated\"}}";
  out buf

(** [to_string events] serializes a trace document. *)
let to_string events =
  let doc = Buffer.create 4096 in
  emit (Buffer.add_buffer doc) events;
  Buffer.contents doc

(** [write_file path events] writes the trace to [path], streaming it
    event by event. *)
let write_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit (Buffer.output_buffer oc) events)
