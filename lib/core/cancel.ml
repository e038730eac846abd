exception Cancelled of string

type t = {
  flag : string option Atomic.t;  (* [Some reason] once tripped *)
  deadline_ns : int64;  (* monotonic; [Int64.max_int] = no deadline *)
  yield : unit -> unit;  (* run at every [check], before the trip test *)
}

let create ?(yield = ignore) () =
  { flag = Atomic.make None; deadline_ns = Int64.max_int; yield }

let never = create ()

let deadline_reason = "deadline-exceeded"

let with_deadline_ms ?(yield = ignore) ms =
  let now = Ace_trace.Trace.now_ns () in
  let budget =
    if ms <= 0 then 0L else Int64.mul (Int64.of_int ms) 1_000_000L
  in
  { flag = Atomic.make None; deadline_ns = Int64.add now budget; yield }

let cancel ?(reason = "cancelled") t =
  ignore (Atomic.compare_and_set t.flag None (Some reason))

(* Deadline trips are latched into the flag so later checks skip the
   clock read and every domain sharing the token agrees on the reason. *)
let tripped t =
  match Atomic.get t.flag with
  | Some _ as r -> r
  | None ->
      if
        t.deadline_ns <> Int64.max_int
        && Ace_trace.Trace.now_ns () >= t.deadline_ns
      then begin
        ignore (Atomic.compare_and_set t.flag None (Some deadline_reason));
        Atomic.get t.flag
      end
      else None

let is_cancelled t = tripped t <> None
let reason t = tripped t

let check t =
  t.yield ();
  match tripped t with None -> () | Some r -> raise (Cancelled r)

let remaining_ms t =
  if t.deadline_ns = Int64.max_int then None
  else
    let left = Int64.sub t.deadline_ns (Ace_trace.Trace.now_ns ()) in
    Some (if left <= 0L then 0 else Int64.to_int (Int64.div left 1_000_000L))
