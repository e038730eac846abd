(* Order statistics and the pass/fail tally every workload feeds. *)

(* Linear interpolation between closest ranks, as numpy's default and
   Python's statistics.quantiles(method="inclusive"). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* Every checked output counts as one attempt; a wrong one as one
   failure.  Atomic because the loaded daemon workload checks replies on
   a second domain. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0

let check what = function
  | Ok () -> Atomic.incr attempted
  | Error msg ->
      Atomic.incr attempted;
      Atomic.incr failed;
      prerr_endline (Printf.sprintf "FAIL %s: %s" what msg)
