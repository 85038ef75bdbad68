(** The [loseq serve] engine: a live monitor endpoint.

    Reads a trace stream — LSQB binary or line-oriented CSV, sniffed
    from the first bytes — from stdin or a Unix-domain socket (one
    connection), feeds it through a {!Session} — the whole suite on one
    {!Loseq_core.Flat} engine; serve has no backend choice — and emits
    NDJSON records on [out] as things happen:

    - [{"type":"start", ...}] once, after the input is open;
    - [{"type":"violation", "property":.., "time":.., "index":..,
      "fragment":.., "message":..}] the moment any property first
      fails — the monitor is {e live}, a violation does not wait for
      end of stream;
    - [{"type":"checkpoint", "path":.., "events":.., "bytes":..}]
      after each periodic {!Checkpoint.save} ([bytes] is the encoded
      size written — the engine blob keeps it from scaling with checker
      count);
    - on SIGTERM/SIGINT: a final checkpoint (when configured), then
      [{"type":"interrupted", "events":..}] — exit code 0, the stream
      is expected to resume;
    - on end of stream: one [{"type":"verdict", "property":..,
      "passed":.., "verdict":..}] per property and a closing
      [{"type":"summary", "passed":.., ...}] with the session
      statistics;
    - [{"type":"error", "message":..}] on malformed input;
    - [{"type":"reorder-certificate", "lateness":.., "certified":..,
      "decided":.., "robust":..}] once at startup when the session
      reorders ([lateness > 0]) or [strict_reorder] is set: the suite's
      lateness-robustness bound ({!Session.reorder_certificate})
      against the configured window.  [robust:false] means some
      reordering the buffer silently absorbs could flip a verdict;
      under [strict_reorder] the server then refuses to start (exit
      [2]).

    With [stats_interval n > 0] a [{"type":"stats", "events":..,
    "delivered":.., "reordered":.., "dropped_late":.., "forced":..,
    "occupancy":.., "watermark":..}] record is emitted every [n]
    accepted events (event-count, not wall-clock: deterministic and
    testable).  The closing [summary] record also carries the reorder
    buffer's final [occupancy]/[watermark]/[max_seen].

    With [metrics_addr (host, port)] the server additionally binds a
    TCP endpoint answering [GET /metrics] (Prometheus text format
    0.0.4) and [GET /stats.json] (the same registry as compact JSON),
    multiplexed into the serve loop with [select] — no threads.  A
    [{"type":"metrics-listening", "addr":.., "port":..}] record
    reports the bound address; with port [0] the kernel picks an
    ephemeral port and this record is how callers learn it.  SIGPIPE
    is ignored while serving, so a scraper disconnecting mid-response
    cannot kill the process.  After end of stream the endpoint
    {e lingers} (the final counters stay scrapable) until
    SIGTERM/SIGINT; the exit code still reflects the verdicts.

    Both modes run one stream loop; they differ only in the admission
    front end.  With [ooo] the speculative {!Loseq_ooo.Engine} (views
    of one flat suite engine) replaces the session and its reorder
    buffer: events are applied the moment they
    arrive, violation records carry a ["speculative"] flag,
    [{"type":"retracted", "property":..}] withdraws a speculative
    violation a rollback disproved, and [{"type":"settled",
    "property":.., "passed":.., "verdict":..}] marks each verdict the
    watermark made definitive.  The [stats] and [summary] records carry
    the engine counters instead ([applied], [late], [commute_hits],
    [rollbacks], [replayed], [journal_depth]/[max_journal],
    [watermark]); the final [verdict] records are byte-identical to the
    buffered mode's up to the ["provenance"] chains (capture is
    arrival-order, so the 1-minimal witness may differ).  [checkpoint]/[resume] are refused (exit [2]) —
    speculative state is not checkpointable.

    Exit codes: [0] all properties passed (or interrupted), [1] some
    property failed, [2] input/setup error (including a strict-reorder
    refusal). *)

open Loseq_verif

val serve :
  ?metrics:Loseq_obs.Metrics.t ->
  ?metrics_addr:string * int ->
  ?stats_interval:int ->
  ?lateness:int ->
  ?window:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?strict_reorder:bool ->
  ?ooo:bool ->
  ?final_time:int ->
  ?trace_out:string ->
  ?profile_out:string ->
  ?latency_sample_rate:int ->
  ?out:out_channel ->
  input:[ `Stdin | `Socket of string ] ->
  Suite.t ->
  int
(** [checkpoint] is the checkpoint file path; [checkpoint_every n]
    (default 0 = only on shutdown) saves it every [n] accepted events.
    [resume] (default false) restores from [checkpoint] when the file
    exists — the producer must replay the stream from the start; the
    server skips the events the checkpoint already accounts for.
    Checkpoints are written in format version 2; version-1 files from
    earlier releases resume too.
    [lateness]/[window] configure the session's reorder stage (ignored
    on resume: the checkpoint's values win).  [out] defaults to
    stdout.

    [metrics] (default noop) is threaded through the session to the hub
    and reorder buffer, and additionally feeds the server-level
    instruments [loseq_bytes_in_total], [loseq_records_decoded_total],
    [loseq_sessions_live], [loseq_verdicts_total{verdict=..}] and
    [loseq_checkpoint_writes_total].  Passing [metrics_addr], a
    positive [stats_interval] or [profile_out] without an explicit
    [metrics] creates a live registry automatically.

    Failed [verdict] records carry a ["provenance"] member — the
    minimal causal chain behind the Fail ({!Loseq_verif.Provenance}):
    the events that advanced the recognizer, delta-debugged to
    1-minimality, plus the firing deadline for deadline misses.
    Capture is always on (one bounded ring push per alphabet event) in
    both hosting modes; [loseq explain-verdict] replays the chain
    standalone.

    With [trace_out FILE] a flight recorder ({!Loseq_obs.Trace}) is
    live for the whole run — hub dispatch spans and deadline instants,
    reorder admission instants, backpressure stall spans, input
    admission and checkpoint-write spans, and (under [ooo]) the
    engine's speculation records — and the ring is exported to [FILE]
    on end of stream {e and} on interruption: NDJSON when [FILE] ends
    in [.ndjson], Chrome trace-event JSON (Perfetto-loadable)
    otherwise.  A [{"type":"trace", "path":.., "format":..,
    "records":.., "dropped":..}] record reports the export.

    With [profile_out FILE] a [loseq-profile/1] artifact
    ({!Loseq_obs.Profile}) is written alongside — measured per-checker
    alphabet-event counts and the dispatch-latency histogram — which
    [loseq analyze --shard-plan N --profile FILE] consumes as measured
    load; a [{"type":"profile", "path":.., "checkers":..}] record
    reports it.  [latency_sample_rate] (default 64, buffered mode)
    tunes the hub's dispatch-latency sampling. *)

val feed : ?timeout:float -> path:string -> in_channel -> (int, string) result
(** Copy [in_channel] to the Unix-domain socket at [path] (connecting
    with retries for up to [timeout] seconds, default 5 — the server
    may still be binding); returns the number of bytes copied.  This
    is the producer side of the socket pipe, for shells without a
    [socat]: [loseq feed --socket S < trace.lsqb]. *)
