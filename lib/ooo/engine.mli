(** Speculative out-of-order monitoring.

    The buffered ingestion path ({!Loseq_ingest.Session}) parks every
    event in a watermark reorder buffer for up to [lateness] ticks and
    delivers in timestamp order: verdicts are exact but lag the stream.
    This engine is the POLIMON-style alternative: it applies each event
    to the flat suite engine {e the moment it arrives}, reports
    three-valued in-flight verdicts ({!Loseq_core.Backend.tri}), and
    repairs by rollback-and-replay when a late event lands inside the
    lateness bound — a bounded {!Journal} of suite-alphabet events and
    delta-encoded checker-state snapshots makes the repair local.  A
    verdict {e settles} (becomes definitive) once the watermark
    [max_seen - lateness] passes its decision point: no admissible late
    arrival can change it, and settled verdicts are bit-for-bit those
    of the buffered path.

    The headline optimization is certificate-guided: at session start
    the engine runs the {!Loseq_analysis.Robust} lateness analysis and
    keeps each entry's certified bound and commuting pairs.  A late
    event whose name provably commutes with every name in its replay
    window — or that lands on a checker certified robust at this
    lateness, or that is foreign to the suite alphabet — commits {e in
    place}: no snapshot restore, no rollback, no replay.  On fully
    certified suites the engine never rolls back at all; static
    analysis becomes a runtime fast path.

    Soundness of the in-place commit, per checker [c] for a late event
    [n] at time [t] with replay-window names [M]:
    - [n ∉ α(c)]: the checker never sees [n];
    - [c] already settled: its verdict is decided with the deciding
      prefix strictly below every admissible insertion point, and
      decided monitors are sticky;
    - certified bound [>= lateness] and the analysis decided: the
      certificate quantifies over exactly the arrival orders the engine
      produces, so the final verdict is order-invariant;
    - untimed [c], analysis decided, and every [m ∈ M ∩ α(c)], [m ≠ n],
      is a certified commuting pair with [n]: the in-place name
      sequence rewrites to the inserted one by swaps that are no-ops
      ([m = n]) or certified verdict-preserving.  Timed checkers are
      excluded from this branch — stepping at an earlier timestamp
      after deadlines were already fired eagerly is not a pure name
      swap.

    Deadline discipline mirrors the buffered kernel exactly: before a
    checker steps an event at time [e], every armed deadline [dl] with
    [dl + 1 <= e] fires via [check_time ~now:(dl + 1)]; replay repeats
    the same schedule, which is why settled verdicts (and their
    renderings) match {!Loseq_verif.Report.summary_strings} byte for
    byte. *)

open Loseq_core

type t

(** {1 Notices} *)

(** In-flight verdict traffic, pushed to the [notice] callback as
    offers are processed.  Speculative violations may later be
    retracted; settlements are final. *)
type notice =
  | Violation of {
      index : int;
      label : string;
      violation : Diag.violation;
      settled : bool;  (** [false] while the verdict could still roll
                           back. *)
    }
  | Retracted of { index : int; label : string }
      (** A previously reported violation no longer holds after a
          rollback (or was superseded by a different violation, in
          which case a fresh [Violation] follows). *)
  | Settled of { index : int; label : string; verdict : Backend.verdict }
      (** The watermark passed the decision point: the verdict is
          definitive. *)

(** {1 Lifecycle} *)

val create :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?cert_budget:int ->
  ?snapshot_every:int ->
  ?notice:(notice -> unit) ->
  lateness:int ->
  (string * Pattern.t) list ->
  t
(** Compile the suite into one {!Loseq_core.Flat} engine (one
    {!Backend.flat_views} view per entry; each view persists and
    restores its own slots for rollback), run the lateness-robustness analysis ([cert_budget] defaults to [20_000]
    elementary operations) and take the base snapshot.  A snapshot is
    recorded every [snapshot_every] (default [32]) journalled events.
    With [?metrics], backends are instrumented and the engine registers
    [loseq_ooo_*] counters and gauges on the registry.  A live [trace]
    flight recorder (default noop) records the engine's speculation
    traffic on the ["ooo"] track: a [rollback_replay] span per repair
    (begin argument: checkers restored; end argument: journalled events
    re-stepped), plus [commute_hit], [retraction] and [snapshot]
    instants.

    Raises [Invalid_argument] if [lateness < 0] or [snapshot_every < 1];
    {!Loseq_core.Wellformed.Ill_formed} on an ill-formed pattern. *)

val offer : t -> Trace.event -> [ `Applied | `Commuted | `Replayed of int | `Dropped_late ]
(** Feed one event in arrival order.  [`Applied]: in-order (or foreign
    to every checker) and stepped immediately.  [`Commuted]: late but
    committed in place by the certificate fast path.  [`Replayed n]:
    late; the engine rolled affected checkers back to a snapshot and
    replayed [n] journalled events.  [`Dropped_late]: beyond the
    lateness bound — same admissibility rule as
    {!Loseq_ingest.Reorder} (an event exactly at the watermark is
    admitted).  Raises [Invalid_argument] after {!finalize}. *)

val finalize : ?final_time:int -> t -> unit
(** End of observation at [max (max_seen, final_time, 0)]: fire
    remaining deadlines, run every backend's [finalize], and settle all
    verdicts.  Idempotent. *)

(** {1 Verdicts} *)

val report : t -> (string * Backend.verdict) list
(** Labelled verdicts in suite order — after {!finalize}, equal to the
    buffered session's {!Loseq_verif.Report.summary}. *)

val report_strings : t -> string list
(** Rendered via {!Backend.pp_verdict} — byte-compatible with
    {!Loseq_verif.Report.summary_strings}. *)

val tri : t -> Backend.tri array
(** The three-valued in-flight view: [Unsettled] until the watermark
    passes a checker's decision point (or {!finalize} runs). *)

val settled : t -> bool array

(** {1 Introspection} *)

type stats = {
  applied : int;  (** In-order (or foreign) events stepped directly. *)
  late : int;  (** Admissible out-of-order arrivals. *)
  commute_hits : int;
      (** Late arrivals committed in place by the certificate fast path
          (including suite-foreign ones) — no rollback, no replay. *)
  rollbacks : int;
  replayed : int;  (** Journalled events re-stepped across all rollbacks. *)
  snapshots : int;  (** Snapshots recorded (lifetime, not live). *)
  settled_events : int;  (** Settlement notices emitted. *)
  dropped_late : int;
  max_journal : int;  (** High-water journal depth. *)
}

val stats : t -> stats

val watermark : t -> int
(** [max_seen - lateness]. *)

val max_seen : t -> int
(** Latest timestamp seen; [-1] initially. *)

val journal_depth : t -> int
val certificate : t -> Loseq_analysis.Robust.certificate
(** The certificate consulted by the fast path — what `serve --ooo`
    reports in its reorder-certificate record. *)
