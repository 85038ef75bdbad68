(** Streaming monitor sessions: a property suite hosted live.

    The batch entry points ([loseq check]/[suite]) need the whole trace
    in memory before a monitor steps; a session consumes events as they
    are produced.  Internally it is the thinnest possible shell around
    the machinery that already exists: a private {!Loseq_sim.Kernel}
    advanced to each event's timestamp (so the hub's merged deadline
    wheel fires deadline-only violations exactly as in a simulation), a
    {!Loseq_verif.Tap} with recording off, and a {!Loseq_verif.Hub}
    hosting the whole suite on one {!Loseq_core.Flat} engine
    ({!Loseq_verif.Suite.attach_hub_flat}: one dispatch row per event
    name, every checker's state in one packed array) — all stream
    mechanics live here, none in the monitors (the Backes et al.
    observer-hosting discipline).  This is the only live hosting path:
    the [--backend] choice of the batch commands does not apply.

    Between the caller and the hub sits a {!Reorder} buffer: events up
    to [lateness] ticks out of order are re-sorted; later ones are
    counted as {!stats}[.dropped_late] and discarded.  The buffer is
    bounded by [window]: when it fills, {!offer} reports [`Blocked]
    without consuming the event, and the caller chooses — wait for the
    watermark to advance (it cannot, without new events), or trade
    reorder margin for progress with {!force_drain}.  {!offer_force}
    packages the usual policy, and {!port} pre-binds it per name: the
    server's admission path. *)

open Loseq_core
open Loseq_verif

type t

val create :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?latency_sample_rate:int ->
  ?lateness:int ->
  ?window:int ->
  Suite.t ->
  t
(** Compile the suite into one flat engine and host it.  [lateness]
    defaults to [0] (strictly chronological input expected); [window]
    to [1024].  A live [metrics] sink (default
    noop) is threaded to the {!Loseq_verif.Hub} and the {!Reorder}
    buffer, so one session exports the full hub + reorder instrument
    set; a live [trace] flight recorder (default noop) likewise — hub
    dispatch spans and deadline instants, reorder admission instants,
    plus a [stall] span on the ["ingest"] track around every
    backpressure force-drain.  [latency_sample_rate] tunes the hub's
    dispatch-latency sampling (default 64).  Raises
    {!Loseq_core.Wellformed.Ill_formed}. *)

val offer : t -> Trace.event -> [ `Accepted | `Blocked ]
(** Feed one event.  [`Accepted]: consumed — delivered now, buffered,
    or counted dropped-late.  [`Blocked]: {e not} consumed, the pending
    window is full. *)

val force_drain : t -> bool
(** Deliver the oldest pending event even though its watermark has not
    passed (counted in {!stats}[.forced]); [false] if nothing was
    pending. *)

val offer_force : t -> Trace.event -> unit
(** [offer], force-draining until accepted — the standard server
    policy under backpressure. *)

val port : t -> Name.t -> int -> unit
(** [port t n] binds admission for events named [n] once, the way a
    SystemC port is bound at elaboration.  [port t n time] is
    [offer_force t { name = n; time }]; on the in-order fast path
    ([lateness] 0, nothing pending) it delivers through the tap port
    bound for [n] ({!Loseq_verif.Tap.port}), so no name is hashed and
    the session allocates no event.  A name outside the suite's
    alphabet is still counted as accepted and delivered, and binding
    it does not grow the tap's name table. *)

val flush : t -> unit
(** Deliver everything pending, in timestamp order. *)

val finalize : ?final_time:int -> t -> Report.t
(** {!flush}, advance time to [final_time] (default: the last
    timestamp seen — firing any deadline that elapses on the way), and
    finalize every checker.  The session can keep receiving events
    afterwards, but verdicts are already decided. *)

(** {1 Observation} *)

type stats = {
  accepted : int;  (** events consumed by {!offer} *)
  delivered : int;  (** events released into the hub, in order *)
  reordered : int;  (** out-of-order arrivals absorbed *)
  dropped_late : int;  (** arrivals beyond the lateness bound *)
  forced : int;  (** backpressure force-drains *)
}

val stats : t -> stats
val position : t -> int
(** [= (stats t).accepted] — the stream position a checkpoint records
    and a resumed producer skips to. *)

val on_violation : t -> (name:string -> Diag.violation -> unit) -> unit
(** Incremental reporting: called the moment any hosted checker first
    violates, with the suite entry name. *)

val report : t -> Report.t
(** The current verdicts without finalizing. *)

val all_passed : t -> bool

val reorder_certificate :
  ?budget:int -> t -> Loseq_analysis.Robust.certificate
(** The hosted suite's lateness-robustness certificate
    ({!Loseq_analysis.Robust}): the maximal reorder window that
    provably cannot flip any verdict.  [budget] bounds the per-pattern
    state exploration (default [20000] — deliberately below the
    analyzer's default so that consulting the certificate at session
    startup stays cheap; an undecided entry certifies [Finite 0]
    conservatively). *)

val reorder_robust : ?budget:int -> t -> bool
(** The session's configured [lateness] is within the certified bound:
    every reordering the {!Reorder} stage can silently absorb is
    verdict-invariant. *)

(** {1 Checkpoint plumbing} (used by {!Checkpoint}) *)

val suite : t -> Suite.t
val hub : t -> Hub.t

val engine : t -> Flat.t
(** The suite engine: its state blob is what {!Checkpoint} writes. *)

val kernel : t -> Loseq_sim.Kernel.t
val reorder : t -> Reorder.t
val lateness : t -> int
val window : t -> int
val now : t -> int

val restore_counters :
  t -> accepted:int -> delivered:int -> forced:int -> unit
