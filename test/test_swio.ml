(* Tests for the I/O substrate. *)

open Swio

(* ------------------------------------------------------------------ *)
(* Fast_format *)

let test_format_integers () =
  Alcotest.(check string) "zero" "0" (Fast_format.float_to_string 0.0 ~decimals:0);
  Alcotest.(check string) "positive" "42" (Fast_format.float_to_string 42.0 ~decimals:0);
  Alcotest.(check string) "negative" "-7" (Fast_format.float_to_string (-7.0) ~decimals:0)

let test_format_decimals () =
  Alcotest.(check string) "3 decimals" "1.500" (Fast_format.float_to_string 1.5 ~decimals:3);
  Alcotest.(check string) "padding" "0.001" (Fast_format.float_to_string 0.001 ~decimals:3);
  Alcotest.(check string) "negative frac" "-0.250" (Fast_format.float_to_string (-0.25) ~decimals:3);
  Alcotest.(check string) "rounding" "0.667" (Fast_format.float_to_string (2.0 /. 3.0) ~decimals:3)

let test_format_rejects_nan () =
  Alcotest.(check bool) "nan rejected" true
    (try ignore (Fast_format.float_to_string Float.nan ~decimals:3); false
     with Invalid_argument _ -> true)

let test_format_rejects_too_many_decimals () =
  Alcotest.(check bool) "decimals cap" true
    (try ignore (Fast_format.float_to_string 1.0 ~decimals:15); false
     with Invalid_argument _ -> true)

let prop_format_matches_printf =
  (* the specialized formatter must agree with printf %.*f *)
  QCheck.Test.make ~name:"fast_format: agrees with printf" ~count:500
    QCheck.(pair (float_range (-99999.0) 99999.0) (int_range 0 6))
    (fun (x, d) ->
      let fast = Fast_format.float_to_string x ~decimals:d in
      let slow = Printf.sprintf "%.*f" d x in
      (* printf uses round-half-even, ours rounds half away: accept
         either by comparing as numbers *)
      Float.abs (float_of_string fast -. float_of_string slow)
      <= 0.51 /. (10.0 ** float_of_int d))

let prop_format_roundtrip =
  QCheck.Test.make ~name:"fast_format: parse-back within half ulp" ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun x ->
      let s = Fast_format.float_to_string x ~decimals:4 in
      Float.abs (float_of_string s -. x) <= 0.5 /. 1e4 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Buffered_writer *)

let test_writer_accumulates () =
  let sink = Buffer.create 64 in
  let w = Buffered_writer.create ~capacity:16 sink in
  Buffered_writer.write_string w "hello ";
  Buffered_writer.write_string w "world";
  Buffered_writer.flush w;
  Alcotest.(check string) "content" "hello world" (Buffer.contents sink)

let test_writer_few_flushes () =
  (* a large buffer means few "write calls" for many small writes *)
  let w = Buffered_writer.create ~capacity:65536 (Buffer.create 65536) in
  for _ = 1 to 10000 do
    Buffered_writer.write_string w "0.123 "
  done;
  Buffered_writer.flush w;
  Alcotest.(check bool) "about one flush" true (Buffered_writer.flushes w <= 2);
  Alcotest.(check int) "payload counted" 60000 (Buffered_writer.bytes_written w)

let test_writer_small_buffer_many_flushes () =
  let w = Buffered_writer.create ~capacity:64 (Buffer.create 6000) in
  for _ = 1 to 1000 do
    Buffered_writer.write_string w "0.123 "
  done;
  Buffered_writer.flush w;
  Alcotest.(check bool) "many flushes" true (Buffered_writer.flushes w > 50)

let test_writer_oversized_write_in_order () =
  (* a write larger than the buffer flushes what is pending, then goes
     to the sink as a write call of its own *)
  let sink = Buffer.create 64 in
  let w = Buffered_writer.create ~capacity:8 sink in
  let big = String.make 20 'x' in
  Buffered_writer.write_string w "abc";
  Buffered_writer.write_string w big;
  Alcotest.(check string) "pending bytes first" ("abc" ^ big) (Buffer.contents sink);
  Alcotest.(check int) "two write calls" 2 (Buffered_writer.flushes w);
  Buffered_writer.write_string w "de";
  Buffered_writer.flush w;
  Alcotest.(check string) "then the tail" ("abc" ^ big ^ "de") (Buffer.contents sink);
  Alcotest.(check int) "three write calls" 3 (Buffered_writer.flushes w);
  Alcotest.(check int) "payload counted" 25 (Buffered_writer.bytes_written w)

let test_writer_appends_to_sink () =
  (* the sink is the caller's buffer: a flush appends to what it holds *)
  let sink = Buffer.create 64 in
  Buffer.add_string sink "header\n";
  let w = Buffered_writer.create ~capacity:4 sink in
  String.iter (Buffered_writer.write_char w) "0123456789";
  Alcotest.(check string) "full buffers flushed" "header\n01234567" (Buffer.contents sink);
  Buffered_writer.flush w;
  Alcotest.(check string) "appended" "header\n0123456789" (Buffer.contents sink);
  Alcotest.(check int) "4 + 4 + 2 bytes" 3 (Buffered_writer.flushes w);
  Alcotest.(check int) "sink contents not counted" 10 (Buffered_writer.bytes_written w)

let test_writer_write_fixed_across_flushes () =
  (* write_fixed flushes first when under 32 bytes are free; the text
     must still be the formatter's, value by value *)
  let sink = Buffer.create 1024 in
  let w = Buffered_writer.create ~capacity:40 sink in
  let xs = List.init 50 (fun i -> (1.37 *. float_of_int i) -. 31.1) in
  List.iter
    (fun x ->
      Buffered_writer.write_fixed w x ~decimals:3;
      Buffered_writer.write_char w ' ')
    xs;
  Buffered_writer.flush w;
  let want =
    String.concat "" (List.map (fun x -> Fast_format.float_to_string x ~decimals:3 ^ " ") xs)
  in
  Alcotest.(check string) "same text" want (Buffer.contents sink);
  Alcotest.(check int) "payload counted" (String.length want) (Buffered_writer.bytes_written w);
  Alcotest.(check bool) "several write calls" true (Buffered_writer.flushes w > 10)

let test_writer_write_fixed () =
  let sink = Buffer.create 64 in
  let w = Buffered_writer.create ~capacity:256 sink in
  Buffered_writer.write_fixed w 3.14159 ~decimals:2;
  Buffered_writer.flush w;
  Alcotest.(check string) "fixed" "3.14" (Buffer.contents sink)

(* ------------------------------------------------------------------ *)
(* Trajectory *)

let test_trajectory_paths_agree () =
  (* both output paths must produce numerically identical frames *)
  let n = 50 in
  let rng = Mdcore.Rng.create 5 in
  let pos = Fvec.of_array (Array.init (3 * n) (fun _ -> Mdcore.Rng.uniform rng (-5.0) 5.0)) in
  let render path =
    let sink = Buffer.create 4096 in
    let w = Buffered_writer.create ~capacity:65536 sink in
    ignore (Trajectory.write_frame ~path w ~step:7 ~pos ~n);
    Buffered_writer.flush w;
    Buffer.contents sink
  in
  let std = render Trajectory.Standard and fast = render Trajectory.Fast in
  (* parse all numbers from both and compare *)
  let numbers s =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter_map (fun tok -> float_of_string_opt (String.trim tok))
  in
  let a = numbers std and b = numbers fast in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same value" true (Float.abs (x -. y) <= 0.0011))
    a b

let test_io_model_fast_wins () =
  let slow = Io_model.frame_time ~path:Io_model.Standard ~n_atoms:100000 in
  let fast = Io_model.frame_time ~path:Io_model.Fast ~n_atoms:100000 in
  Alcotest.(check bool)
    (Printf.sprintf "fast path >5x faster (%.1fx)" (slow /. fast))
    true
    (slow /. fast > 5.0)

(* ------------------------------------------------------------------ *)
(* Checkpoint: hostile input.  The parser must reject every corruption
   with Invalid_argument — never crash, loop, or silently truncate. *)

let sample_checkpoint () =
  let n = 4 in
  let pos = Fvec.of_array (Array.init (3 * n) (fun i -> 0.1 *. float_of_int (i + 1))) in
  let vel = Fvec.of_array (Array.init (3 * n) (fun i -> -0.01 *. float_of_int (i + 1))) in
  Checkpoint.capture ~step:10 ~pos ~vel ~n_atoms:n ()

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s: hostile input accepted" name
  | exception Invalid_argument _ -> ()

let test_checkpoint_truncation_fuzz () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let full = Checkpoint.of_string good in
  Alcotest.(check bool) "round-trip exact" true (full = ck);
  (* a prefix cut at any byte must be rejected, with one inherent
     exception: a cut inside the very last float line still parses
     (a shortened hex literal is itself valid and the value count
     still matches) — there the damage is confined to that one value *)
  let last_line_start = String.rindex_from good (String.length good - 2) '\n' in
  for k = 0 to String.length good - 1 do
    match Checkpoint.of_string (String.sub good 0 k) with
    | parsed ->
        if k <= last_line_start then
          Alcotest.failf "truncation at byte %d accepted" k;
        Alcotest.(check int) "step survives" ck.Checkpoint.step
          parsed.Checkpoint.step;
        Alcotest.(check bool) "positions survive" true
          (parsed.Checkpoint.pos = ck.Checkpoint.pos);
        Array.iteri
          (fun i v ->
            if i < Array.length parsed.Checkpoint.vel - 1
               && v <> ck.Checkpoint.vel.(i)
            then Alcotest.failf "cut at %d corrupted velocity %d" k i)
          parsed.Checkpoint.vel
    | exception Invalid_argument _ -> ()
  done

let test_checkpoint_hostile_headers () =
  let body = String.concat "" (List.init 6 (fun _ -> "0x1p0\n")) in
  let with_header h = "swgmx-checkpoint 1\n" ^ h ^ "\n" ^ body in
  rejects "negative step" (fun () -> Checkpoint.of_string (with_header "-1 1"));
  rejects "negative atoms" (fun () -> Checkpoint.of_string (with_header "10 -1"));
  (* an overflowing count must fail the guard, not the allocator *)
  rejects "overflowing atoms" (fun () ->
      Checkpoint.of_string (with_header "10 4611686018427387903"));
  rejects "non-numeric header" (fun () ->
      Checkpoint.of_string (with_header "ten 1"));
  rejects "missing field" (fun () -> Checkpoint.of_string (with_header "10"));
  rejects "bad magic" (fun () ->
      Checkpoint.of_string ("swgmx-checkpoint 9\n10 1\n" ^ body));
  rejects "empty input" (fun () -> Checkpoint.of_string "")

let test_checkpoint_hostile_values () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let lines = String.split_on_char '\n' good in
  let patch i v =
    String.concat "\n" (List.mapi (fun j l -> if j = i then v else l) lines)
  in
  (* corrupt each float line in turn with every class of bad value *)
  List.iter
    (fun bad ->
      for i = 3 to 3 + (6 * 4) - 1 do
        rejects
          (Printf.sprintf "line %d <- %S" i bad)
          (fun () -> Checkpoint.of_string (patch i bad))
      done)
    [ "nan"; "inf"; "-inf"; "junk"; "" ];
  (* junk appended after the exact payload *)
  rejects "trailing junk" (fun () -> Checkpoint.of_string (good ^ "junk\n"));
  rejects "trailing float" (fun () -> Checkpoint.of_string (good ^ "0x1p0\n"))

(* denormals are legal floats no simulated trajectory produces: a
   checkpoint carrying one is damaged input, sanitized on parse by
   flushing to signed zero — so a hostile restart can never feed the
   engine the flushed range (NaN/inf are rejected outright above) *)
let test_checkpoint_denormal_sanitized () =
  let ck = sample_checkpoint () in
  let good = Checkpoint.to_string ck in
  let lines = String.split_on_char '\n' good in
  let patch i v =
    String.concat "\n" (List.mapi (fun j l -> if j = i then v else l) lines)
  in
  (* line 3 is pos.(0) in the v2 format (magic, platform, header) *)
  let first_pos s = (Checkpoint.of_string s).Checkpoint.pos.(0) in
  let check_bits msg expected got =
    Alcotest.(check int64) msg (Int64.bits_of_float expected)
      (Int64.bits_of_float got)
  in
  List.iter
    (fun d -> check_bits (d ^ " flushed to +0") 0.0 (first_pos (patch 3 d)))
    [ "0x1p-1060"; "0x0.fffffffffffffp-1022"; "0x0.0000000000001p-1022" ];
  List.iter
    (fun d -> check_bits (d ^ " flushed to -0") (-0.0) (first_pos (patch 3 d)))
    [ "-0x1p-1060"; "-0x0.0000000000001p-1022" ];
  (* the smallest *normal* float is genuine data and survives exactly *)
  check_bits "min_float passes through" 0x1p-1022 (first_pos (patch 3 "0x1p-1022"));
  check_bits "-min_float passes through" (-0x1p-1022)
    (first_pos (patch 3 "-0x1p-1022"));
  (* every untouched value still round-trips bit for bit *)
  let parsed = Checkpoint.of_string (patch 3 "0x1p-1060") in
  Array.iteri
    (fun i v ->
      if i > 0 then check_bits (Printf.sprintf "pos %d untouched" i)
          ck.Checkpoint.pos.(i) v)
    parsed.Checkpoint.pos;
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "vel %d untouched" i)
        ck.Checkpoint.vel.(i) v)
    parsed.Checkpoint.vel;
  (* a sanitized checkpoint restores into live buffers with no
     denormal (and nothing non-finite) left to propagate *)
  let n = ck.Checkpoint.n_atoms in
  let pos = Fvec.create (3 * n) and vel = Fvec.create (3 * n) in
  ignore (Checkpoint.restore parsed ~pos ~vel);
  for i = 0 to (3 * n) - 1 do
    let check_clean what (x : float) =
      if not (Float.is_finite x) then
        Alcotest.failf "%s %d non-finite after restore" what i;
      if x <> 0.0 && Float.abs x < Float.min_float then
        Alcotest.failf "%s %d still denormal after restore" what i
    in
    check_clean "pos" pos.{i};
    check_clean "vel" vel.{i}
  done

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_format_matches_printf; prop_format_roundtrip ]

(* Checkpoint: the writer side and the wire format.  The file route is
   the only checkpoint path, so its format is pinned byte for byte. *)

let test_checkpoint_wire_format () =
  let pos = Fvec.of_array [| 1.0; 0.5; -2.0 |] in
  let vel = Fvec.of_array [| 0.25; 0.0; -0.0 |] in
  let ck = Checkpoint.capture ~platform:"sw26010" ~step:3 ~pos ~vel ~n_atoms:1 () in
  let s = Checkpoint.to_string ck in
  Alcotest.(check string) "version-2 text"
    "swgmx-checkpoint 2\nplatform sw26010\n3 1\n0x1p+0\n0x1p-1\n-0x1p+1\n\
     0x1p-2\n0x0p+0\n-0x0p+0\n"
    s;
  let back = Checkpoint.of_string s in
  Alcotest.(check (list int64)) "signed zero survives"
    (List.map Int64.bits_of_float [ 0.25; 0.0; -0.0 ])
    (List.map Int64.bits_of_float (Array.to_list back.Checkpoint.vel))

let test_checkpoint_capture_validates () =
  let f n = Fvec.of_array (Array.make n 0.0) in
  rejects "negative step" (fun () ->
      Checkpoint.capture ~step:(-1) ~pos:(f 6) ~vel:(f 6) ~n_atoms:2 ());
  rejects "short positions" (fun () ->
      Checkpoint.capture ~step:0 ~pos:(f 3) ~vel:(f 6) ~n_atoms:2 ());
  rejects "short velocities" (fun () ->
      Checkpoint.capture ~step:0 ~pos:(f 6) ~vel:(f 5) ~n_atoms:2 ());
  rejects "platform with a space" (fun () ->
      Checkpoint.capture ~platform:"sw 26010" ~step:0 ~pos:(f 6) ~vel:(f 6)
        ~n_atoms:2 ());
  rejects "platform with a newline" (fun () ->
      Checkpoint.capture ~platform:"sw\n1 1" ~step:0 ~pos:(f 6) ~vel:(f 6)
        ~n_atoms:2 ());
  (* capture copies: later writes to the live buffers do not leak in *)
  let pos = f 6 in
  let ck = Checkpoint.capture ~step:0 ~pos ~vel:(f 6) ~n_atoms:2 () in
  pos.{0} <- 9.0;
  Alcotest.(check (float 0.0)) "snapshot is a copy" 0.0 ck.Checkpoint.pos.(0)

let test_checkpoint_restore () =
  let ck = sample_checkpoint () in
  let n = ck.Checkpoint.n_atoms in
  let pos = Fvec.of_array (Array.make (3 * n) 7.0) in
  let vel = Fvec.of_array (Array.make (3 * n) 7.0) in
  Alcotest.(check int) "returns the step" ck.Checkpoint.step
    (Checkpoint.restore ck ~pos ~vel);
  Alcotest.(check bool) "positions written back" true
    (Fvec.to_array pos = ck.Checkpoint.pos);
  Alcotest.(check bool) "velocities written back" true
    (Fvec.to_array vel = ck.Checkpoint.vel);
  let small = Fvec.of_array (Array.make (3 * (n - 1)) 0.0) in
  rejects "restore into fewer atoms" (fun () ->
      Checkpoint.restore ck ~pos:small ~vel);
  rejects "restore velocities into fewer atoms" (fun () ->
      Checkpoint.restore ck ~pos ~vel:small)

let test_checkpoint_platform_line () =
  let body = "10 1\n0x0p+0\n0x0p+0\n0x0p+0\n0x0p+0\n0x0p+0\n0x0p+0\n" in
  rejects "version 2 without a platform line" (fun () ->
      Checkpoint.of_string ("swgmx-checkpoint 2\n" ^ body));
  rejects "misspelt platform line" (fun () ->
      Checkpoint.of_string ("swgmx-checkpoint 2\nplatfrm x\n" ^ body));
  rejects "magic only" (fun () -> Checkpoint.of_string "swgmx-checkpoint 2");
  let ck = Checkpoint.of_string ("swgmx-checkpoint 2\nplatform \n" ^ body) in
  Alcotest.(check string) "empty platform name parses" "" ck.Checkpoint.platform;
  Alcotest.(check int) "step" 10 ck.Checkpoint.step

let suites =
  [
    ( "swio.fast_format",
      [
        Alcotest.test_case "integers" `Quick test_format_integers;
        Alcotest.test_case "decimals" `Quick test_format_decimals;
        Alcotest.test_case "rejects nan" `Quick test_format_rejects_nan;
        Alcotest.test_case "decimals cap" `Quick test_format_rejects_too_many_decimals;
      ] );
    ( "swio.buffered_writer",
      [
        Alcotest.test_case "accumulates" `Quick test_writer_accumulates;
        Alcotest.test_case "few flushes with big buffer" `Quick test_writer_few_flushes;
        Alcotest.test_case "many flushes with small buffer" `Quick test_writer_small_buffer_many_flushes;
        Alcotest.test_case "write_fixed" `Quick test_writer_write_fixed;
        Alcotest.test_case "oversized write keeps order" `Quick
          test_writer_oversized_write_in_order;
        Alcotest.test_case "appends to the sink" `Quick test_writer_appends_to_sink;
        Alcotest.test_case "write_fixed across flushes" `Quick
          test_writer_write_fixed_across_flushes;
      ] );
    ( "swio.trajectory",
      [
        Alcotest.test_case "fast = standard output" `Quick test_trajectory_paths_agree;
        Alcotest.test_case "cost model favours fast path" `Quick test_io_model_fast_wins;
      ] );
    ( "swio.hostile_input",
      [
        Alcotest.test_case "checkpoint: truncation fuzz" `Quick
          test_checkpoint_truncation_fuzz;
        Alcotest.test_case "checkpoint: hostile headers" `Quick
          test_checkpoint_hostile_headers;
        Alcotest.test_case "checkpoint: hostile values" `Quick
          test_checkpoint_hostile_values;
        Alcotest.test_case "checkpoint: denormals sanitized" `Quick
          test_checkpoint_denormal_sanitized;
      ] );
    ( "swio.checkpoint",
      [
        Alcotest.test_case "wire format" `Quick test_checkpoint_wire_format;
        Alcotest.test_case "capture validates" `Quick
          test_checkpoint_capture_validates;
        Alcotest.test_case "restore" `Quick test_checkpoint_restore;
        Alcotest.test_case "platform line" `Quick test_checkpoint_platform_line;
      ] );
    ("swio.properties", qsuite);
  ]
