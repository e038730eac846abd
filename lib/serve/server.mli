(** The aced request server.

    One {!t} serves many connections (socket mode spawns a thread per
    connection; [--once] mode reads stdin).  The contract is totality:
    {!handle_line} never raises and always returns exactly one
    well-formed JSON reply, whatever the input — oversized lines,
    binary garbage, half a request, a layout that trips an internal
    exception on a spawned shard domain.  The daemon's health is never
    coupled to a request's fate.

    Robustness machinery per request:

    - {b deadlines}: [deadline_ms] (or the configured default) becomes
      an {!Ace_core.Cancel} token threaded into the extraction engine
      and the flow solver; expiry raises out of the hot loop and is
      mapped to a ["deadline-exceeded"] error reply (counted by the
      [deadline_kills] counter).  The token is also polled while a
      request waits its turn on the compute domain, so queued requests
      time out too, and a request given up while queued never runs.
    - {b the compute domain}: a cache miss with company (another
      compute request in flight, or one admitted beside another since
      the previous miss began) runs its miss path (parse, canonical
      key, lookup, extraction, LVS, payload and store) as a job on a
      domain of its own, started for the first such miss and kept,
      while the connection thread keeps the warm path (request, raw-key
      memo, entry read, reply).  A lone miss runs inline on its
      connection thread.  One miss runs at a time, inline or as a job,
      so identical misses queued behind one another find the entry the
      first stored.  [stats] reports the domain under ["compute"].
    - {b backpressure}: at most [max_inflight] compute requests run at
      once; beyond that, requests are rejected immediately with an
      ["overloaded"] reply carrying [retry_after_ms] — bounded memory
      under sustained overload ([ping]/[stats] are always admitted).
    - {b isolation}: any exception — including one raised on a spawned
      shard domain and re-raised at the parallel join — yields an
      ["internal-error"] reply with a stable exception fingerprint;
      the daemon keeps serving.
    - {b persistence}: results of [extract], [lint], [flow] and [lvs]
      are cached content-addressed in a {!Cache} ([extract], [lint] and
      [flow] share one entry per layout); a warm reply's [result] field
      is the cached payload spliced verbatim, so it is byte-identical to
      the cold reply.  A request is keyed by its raw CIF bytes first: an
      in-memory memo maps that key to the canonical cache key and the
      rendered front-end diagnostics, so repeating a request's bytes
      neither parses nor canonicalises its CIF.  On a memo miss the
      request is parsed and keyed by its canonical CIF, which lets
      different texts of one layout share an entry.  The memo is bounded
      by {!memo_budget_bytes} and starts over when full; it is not
      persisted, so a restarted daemon replays no diagnostics from an
      older build. *)

type config = {
  jobs : int;  (** default and maximum shards per request *)
  cache : Cache.t option;
  max_request_bytes : int;
  max_inflight : int;
  default_deadline_ms : int;  (** 0 = none *)
  retry_after_ms : int;  (** hint in overload replies *)
  faults : Faults.t;
  vdd : string;  (** default rail names for lint/flow *)
  gnd : string;
}

val config :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?max_request_bytes:int ->
  ?max_inflight:int ->
  ?default_deadline_ms:int ->
  ?retry_after_ms:int ->
  ?faults:Faults.t ->
  ?vdd:string ->
  ?gnd:string ->
  unit ->
  config
(** Defaults: [jobs = 1], no cache, 8 MiB requests, [max_inflight = 4],
    no deadline, [retry_after_ms = 100], no faults, rails VDD/GND. *)

type t

val create : config -> t

val memo_budget_bytes : int
(** The raw-key memo's byte budget, a constant.  An entry costs its
    three strings (raw key, canonical key, diagnostics JSON) plus a fixed
    overhead; an entry whose diagnostics alone exceed the budget is not
    kept. *)

val stopping : t -> bool
(** True once a [shutdown] request has been accepted. *)

val handle_line : t -> string -> string
(** One request line in, one reply line out (no trailing newline).
    Total: never raises. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve until EOF or shutdown, one reply per line, in order.  Input is
    read in 64 KiB chunks.  Lines longer than [max_request_bytes] are
    drained without buffering and answered with ["request-too-large"];
    a last line without a newline is still a line. *)

val serve_once : t -> unit
(** [serve_channel] over stdin/stdout. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the given path (replacing any stale
    socket file), accept in a loop, one thread per connection.
    Returns after a [shutdown] request; the socket file is removed. *)
