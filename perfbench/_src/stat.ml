(* Order statistics and scaling fits over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, [q] in [0, 1]; nan on no samples. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (floor pos) in
    let f = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

(* Log-log exponent of a cost measured at two sizes. *)
let exponent ~n0 ~t0 ~n1 ~t1 =
  log (t1 /. t0) /. log (float_of_int n1 /. float_of_int n0)
