(** FNV-1a, 64 bit: cheap, and stable across runs, builds and platforms.
    It names what must stay put between builds: lint and LVS finding
    fingerprints (SARIF [acePrint/v1]), the daemon's cache file names and
    its exception fingerprints. *)

val hex64 : string -> string
(** The hash as 16 lowercase hex digits. *)

val hex64_parts : string list -> string
(** [hex64_parts parts = hex64 (String.concat "\x00" parts)], without
    building the concatenation. *)
