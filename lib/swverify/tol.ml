type t =
  | Exact_bits
  | Ulp of int
  | Rel_abs of { rel : float; abs : float }

let exact = Exact_bits

let ulps n =
  if n < 0 then invalid_arg "Swverify.Tol.ulps: negative budget";
  Ulp n

let rel_abs ~rel ~abs =
  if rel < 0.0 || abs < 0.0 || Float.is_nan rel || Float.is_nan abs then
    invalid_arg "Swverify.Tol.rel_abs: tolerances must be non-negative";
  Rel_abs { rel; abs }

let drift rel = rel_abs ~rel ~abs:rel

let to_string = function
  | Exact_bits -> "exact-bits"
  | Ulp n -> Printf.sprintf "ulp<=%d" n
  | Rel_abs { rel; abs } -> Printf.sprintf "rel<=%g|abs<=%g" rel abs

let close t a b =
  match t with
  | Exact_bits -> Int64.bits_of_float a = Int64.bits_of_float b
  | Ulp n -> Ulp.within n a b
  | Rel_abs { rel; abs } ->
      if Float.is_nan a || Float.is_nan b then false
        (* equal values pass before any subtraction: inf -. inf is NaN *)
      else if a = b then true
        (* one-sided or mismatched infinity: the error itself is
           infinite and must not cancel against an inf * rel bound *)
      else if not (Float.is_finite a && Float.is_finite b) then false
      else
        let err = Float.abs (a -. b) in
        err <= abs +. (rel *. Float.max (Float.abs a) (Float.abs b))

let explain t a b =
  let d =
    match Ulp.dist a b with
    | None -> "n/a (NaN)"
    | Some d when d = Int64.max_int -> ">= 2^63"
    | Some d -> Int64.to_string d
  in
  let err = Float.abs (a -. b) in
  let scale = Float.max (Float.abs a) (Float.abs b) in
  let rel = if scale > 0.0 then err /. scale else 0.0 in
  Printf.sprintf
    "%s: expected %h (%.17g) got %h (%.17g) | ulp %s abs %.3g rel %.3g | %s"
    (if close t a b then "ok" else "FAIL")
    a a b b d err rel (to_string t)

let check ?what t expected got =
  if not (close t expected got) then
    let prefix = match what with Some w -> w ^ ": " | None -> "" in
    failwith (prefix ^ explain t expected got)
