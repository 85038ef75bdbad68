(** Shared command-line documentation fragments.

    The [check]/[suite]/[soc] subcommands all take [--backend] and
    the serve command documents its hosting modes; the
    strings live here — in one place the test suite can pin — so a new
    backend or serve mode cannot be documented on one command and
    silently missed on another. *)

val backend_names : string list
(** Every selectable backend, in the order the CLI lists them:
    [["direct"; "compiled"; "flat"; "psl"]]. *)

val backend_doc : string
(** The [--backend] option description shared by [check], [suite] and
    [soc].  Mentions each of {!backend_names}. *)

val serve_modes_doc : string
(** The serve man-page paragraph: the one flat-engine hosting (no
    [--backend]; v2 checkpoints written, v1 read) and the two hosting
    modes, the default buffered (watermark reorder) path and the
    [--ooo] speculative path.  Mentions [--ooo], [--lateness] and the
    [settled]/[speculative] NDJSON markers. *)

val ooo_doc : string
(** The [--ooo] flag description. *)
