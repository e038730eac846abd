(** Word-at-a-time byte scans for the daemon's request path.

    Each scan tests 8 bytes at once with one SWAR ("SIMD within a
    register") test and skips every word that holds no byte it stops
    at; a byte loop then finds the exact index inside the first word
    that does.  The result is the byte loop's, at every offset.
    [0 <= i <= stop <= String.length s] is the caller's to keep. *)

val json_plain_end : string -> int -> int -> int
(** [json_plain_end s i stop] is the first index in [\[i, stop)] of a
    ['"'], a ['\\'] or a control byte (below 0x20), or [stop]: the end
    of the plain run a JSON string literal copies whole. *)

val newline_end : string -> int -> int -> int
(** [newline_end s i stop] is the first index in [\[i, stop)] of a
    ['\n'], or [stop]. *)
