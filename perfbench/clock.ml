(* Monotonic time and order statistics. Every duration the benchmark
   reports is taken with [now], never with the wall clock. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let since t0 = now () -. t0

(* [quantile sorted q]: linear interpolation between the order
   statistics at rank [q * (n - 1)] (the "inclusive" definition, as
   numpy's default and Python's [statistics.quantiles(method=
   "inclusive")]); [nan] on an empty sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = Int.max 0 (Int.min (n - 1) (int_of_float pos)) in
    if i = n - 1 then sorted.(i)
    else
      let frac = pos -. float_of_int i in
      sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile a q = quantile (sorted_copy a) q
let median a = percentile a 0.5

(* the mean of the order statistics from the first to the third
   quartile (ranks n/4 .. 3n/4, rounded down and up) *)
let interquartile_mean a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let lo = n / 4 and hi = Int.max (n / 4 + 1) ((3 * n + 3) / 4) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (hi - lo)

(* growable float sample, one per recording thread *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.data 0 t.n
end
