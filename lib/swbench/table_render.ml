(** Plain-text rendering of tables, bar charts and series — the output
    format of the experiment harness. *)

(** [table ppf ~headers rows] prints an aligned table; every row must
    have [List.length headers] cells. *)
let table ppf ~headers rows =
  let ncol = List.length headers in
  List.iter
    (fun r ->
      if List.length r <> ncol then invalid_arg "Table_render.table: ragged row")
    rows;
  let widths = Array.make ncol 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let line ch =
    Fmt.pf ppf "+";
    Array.iter (fun w -> Fmt.pf ppf "%s+" (String.make (w + 2) ch)) widths;
    Fmt.pf ppf "@."
  in
  let print_row row =
    Fmt.pf ppf "|";
    List.iteri (fun i cell -> Fmt.pf ppf " %-*s |" widths.(i) cell) row;
    Fmt.pf ppf "@."
  in
  line '-';
  print_row headers;
  line '=';
  List.iter print_row rows;
  line '-'

(** [bar_chart ppf ~title ?unit items] prints horizontal bars scaled to
    the largest value. *)
let bar_chart ppf ~title ?(unit = "") items =
  Fmt.pf ppf "%s@." title;
  let vmax = List.fold_left (fun m (_, v) -> Float.max m v) 1e-30 items in
  let label_w =
    List.fold_left (fun m (l, _) -> max m (String.length l)) 0 items
  in
  List.iter
    (fun (label, v) ->
      let n = int_of_float (Float.round (v /. vmax *. 50.0)) in
      Fmt.pf ppf "  %-*s %s %.2f%s@." label_w label (String.make (max n 0) '#') v unit)
    items;
  Fmt.pf ppf "@."

(** [fmt_float ?(dec = 2) v] renders a float cell. *)
let fmt_float ?(dec = 2) v = Printf.sprintf "%.*f" dec v

(** [fmt_pct v] renders a ratio as a percentage cell. *)
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
