(* [(a + b - 1) / b] truncates toward zero, so a negative [a] would
   silently yield a floor-division result (e.g. [ceil_div (-1) 4 = 0],
   not the "round away from zero" a caller might expect). Every call
   site in this codebase divides a size, a dimension or a byte count —
   all non-negative — so negative numerators are rejected outright
   rather than given a surprising answer. *)
let ceil_div a b =
  assert (a >= 0);
  assert (b > 0);
  (a + b - 1) / b

let round_up a b = ceil_div a b * b

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let log2_ceil n =
  assert (n >= 1);
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

(* O(sqrt n): every divisor d <= sqrt n pairs with n / d >= sqrt n, so one
   scan up to the root collects both halves of the list. *)
let divisors n =
  assert (n > 0);
  let rec go d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let q = n / d in
      go (d + 1) (d :: small) (if q = d then large else q :: large)
    else go (d + 1) small large
  in
  go 1 [] []

let kib n = n * 1024
