(** Checkpoint/resume for streaming monitor sessions.

    A checkpoint is one JSON document capturing everything a
    {!Session} needs to continue as if it had never stopped: the suite
    identity (source text, match-checked on resume), the session
    parameters, the stream position, the reorder buffer {e as is}
    (pending events are carried, not flushed — flushing would deliver
    them earlier than the uninterrupted run would have), and the exact
    run state of every hosted monitor.

    The session's whole suite runs on one {!Loseq_core.Flat} engine,
    so the monitor state is a single base64 blob plus the interning
    table that pins its layout (format version 2, the only one
    written): capture/restore cost does not scale with checker count.
    Version 1 files — one persisted JSON state per checker, written by
    the per-checker hosting of earlier releases — are still read: each
    state is imported into its checker's slot of the engine.

    The resume contract is replay-based: the producer re-sends the
    stream from the start and the consumer skips the first
    {!position}-many events — exactly the events the checkpointed
    session had {e accepted} (delivered, buffered or counted
    dropped-late).  Equivalence is property-tested: killing a session
    at any prefix and resuming yields a report whose
    {!Loseq_verif.Report.summary_strings} equals the uninterrupted
    run's. *)

open Loseq_core

val capture : Session.t -> Json.t
(** A version-2 document: the engine blob and the stream state. *)

val restore : Session.t -> Json.t -> (unit, string) result
(** Overwrite a {e fresh} session (no events offered) with a captured
    state, version 2 or an imported version 1.  Fails on
    schema/version mismatch (including a flat blob of an unsupported
    [blob_version], reported as a clear error, not a decode
    exception), a different suite, a non-fresh session, or a v1 state
    that does not fit its checker.
    On success the session's kernel is advanced to the checkpointed
    time and the hub's deadline wheel is re-armed. *)

val save : path:string -> Session.t -> (int, string) result
(** {!capture} to a file, atomically (write to [path ^ ".tmp"], then
    rename).  [Ok n] is the encoded byte size written — surfaced in
    the server's [checkpoint] NDJSON record. *)

val load : path:string -> (Json.t, string) result

val position : Json.t -> (int, string) result
(** The number of leading stream events a resumed producer (or a
    skipping consumer) must not re-deliver. *)

val resume :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?latency_sample_rate:int ->
  path:string ->
  Loseq_verif.Suite.t ->
  (Session.t, string) result
(** [load], create a session with the checkpoint's lateness/window
    (and, like {!Session.create}, an optional live [metrics] sink,
    [trace] flight recorder and sampling rate), [restore].  Either
    version resumes. *)
