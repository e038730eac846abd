type phase = Front_end | List_update | Devices | Output

let all_phases = [ Front_end; List_update; Devices; Output ]

let phase_name = function
  | Front_end -> "parsing, interpreting and sorting"
  | List_update -> "entering new geometry into lists"
  | Devices -> "computing devices, nets, etc."
  | Output -> "storage allocation, input/output"

let phase_slug = function
  | Front_end -> "front_end"
  | List_update -> "list_update"
  | Devices -> "devices"
  | Output -> "output"

let index = function
  | Front_end -> 0
  | List_update -> 1
  | Devices -> 2
  | Output -> 3

type t = float array

let create () = Array.make 4 0.0

(* Phase accounting rides the tracer: the same clock samples feed the
   accumulated seconds and (when --trace is recording) the exported
   span, so trace-derived phase timings agree exactly with these. *)
let charge t phase f =
  Ace_trace.Trace.timed (phase_slug phase)
    (fun dt -> t.(index phase) <- t.(index phase) +. dt)
    f

let add t phase s = t.(index phase) <- t.(index phase) +. s
let seconds t phase = t.(index phase)
let total_seconds t = Array.fold_left ( +. ) 0.0 t

let distribution t =
  let total = total_seconds t in
  List.map
    (fun p ->
      (p, if total > 0.0 then 100.0 *. seconds t p /. total else 0.0))
    all_phases
