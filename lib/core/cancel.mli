(** Cooperative cancellation tokens for long-running pipeline work.

    A token is either manual (tripped by {!cancel}, e.g. a client hanging
    up) or deadline-based (tripped when the monotonic clock passes a
    point fixed at creation).  Hot loops call {!check} at their natural
    checkpoints — scanline stops in {!Engine.run}, stream pops, solver
    iterations — and the token raises {!Cancelled} once tripped; the
    exception unwinds through [Fun.protect] finalizers, so spans close
    and worker domains are still joined.

    Tokens are safe to share across domains: the flag is an [Atomic.t]
    and the deadline is immutable.  {!never} never trips and costs one
    call to [ignore] and one atomic load per {!check}, so threading it
    through by default is free.

    A token also carries a [yield] hook that {!check} runs before its
    trip test, so the checkpoints double as scheduling points.  A
    daemon that serves each connection on its own system thread passes
    [Thread.yield]: a long cold request then hands the domain to a
    waiting cheap request at its next checkpoint instead of at the next
    runtime tick.  The default hook is [ignore], and this library does
    not depend on [threads]. *)

type t

exception Cancelled of string
(** The payload is the reason slug: ["deadline-exceeded"] for deadline
    trips, the {!cancel} reason (default ["cancelled"]) otherwise.  The
    slugs double as wire-protocol error codes. *)

val never : t
(** A token that never trips; its yield hook is [ignore]. *)

val create : ?yield:(unit -> unit) -> unit -> t
(** A manual token, tripped only by {!cancel}.  [yield] (default
    [ignore]) runs at every {!check}. *)

val with_deadline_ms : ?yield:(unit -> unit) -> int -> t
(** A token that trips once the given number of milliseconds has elapsed
    on the monotonic clock ({!Ace_trace.Trace.now_ns}); immune to
    wall-clock steps.  A non-positive budget is already expired.
    [yield] as for {!create}. *)

val cancel : ?reason:string -> t -> unit
(** Trip the token manually.  Idempotent; the first reason wins. *)

val is_cancelled : t -> bool
(** Has the token tripped (flag set, or deadline passed)?  Reads the
    clock only when a deadline is armed. *)

val check : t -> unit
(** Run the token's yield hook, then raise {!Cancelled} if the token has
    tripped, else return. *)

val reason : t -> string option
(** The trip reason, once tripped. *)

val remaining_ms : t -> int option
(** Milliseconds left until the deadline ([Some 0] when expired);
    [None] for tokens without one. *)
