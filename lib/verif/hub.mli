(** Event hubs: many checkers on one tap, alphabet-routed.

    The hub is the production hosting layer for monitor backends.  Two
    properties distinguish it from attaching checkers one by one:

    - {e alphabet routing}: each emitted event reaches only the
      checkers whose pattern alphabet contains its name (one interned
      per-name subscription per alphabet name, resolved through
      {!Loseq_core.Backend.t.prepare} so even the name lookup happens
      once per tap, not once per event).  A tap carrying [k] checkers
      with disjoint alphabets does {e one} monitor step per event, not
      [k] — the hosted realization of the paper's Θ(max|α(Fᵢ)|)
      per-event cost;
    - {e a merged deadline wheel}: a single kernel timeout parked at
      the minimum of all checkers' [next_deadline]s (a lazy min-heap),
      instead of one timeout per timed checker.  Deadline-only
      violations — no trailing event — are still reported the moment
      they elapse.

    Strict-mode checkers are the exception to routing: they must see
    foreign events, so they subscribe to the whole stream.

    There are two ways to host.  Per checker ({!add}, {!host}): any
    backend, one closure per (checker, alphabet name) — what the
    simulated platform and the per-pattern commands use.  Engine-direct
    ({!host_flat}): a whole {!Loseq_core.Flat} suite engine, one
    dispatch row per name — the one path live sessions
    ([Loseq_ingest.Session], hence [loseq serve]) use. *)

open Loseq_core

type t

val create : ?metrics:Loseq_obs.Metrics.t -> ?trace:Loseq_obs.Trace.t -> Tap.t -> t
(** [metrics] (default {!Loseq_obs.Metrics.noop}) attaches runtime
    telemetry when live: [loseq_events_dispatched_total] (one per tap
    emission), [loseq_hub_deliveries_total{name=..}] (routed checker
    deliveries), [loseq_checker_transitions_total{verdict=..}],
    [loseq_hub_wheel_depth] (refreshed on deadline activity and sampled
    dispatches), [loseq_hub_deadline_firings_total] and the
    sampled [loseq_hub_dispatch_ns] latency histogram; hosted backends
    additionally count [loseq_backend_steps_total{backend=..}].  With
    the noop default none of this is registered or subscribed — the
    dispatch path is unchanged.

    [trace] (default {!Loseq_obs.Trace.noop}) attaches the flight
    recorder when live, on the ["hub"] track: [dispatch] spans on the
    latency-sampled path (reusing its clock reads, so tracing adds no
    clock reads of its own), [deadline_fire] instants (argument: the
    missed deadline) and [wheel_depth] counter samples. *)

val add :
  ?backend:Backend.factory ->
  ?mode:Monitor.mode ->
  ?name:string ->
  ?latency_sample_rate:int ->
  t ->
  Pattern.t ->
  Checker.t
(** Host one property.  [backend] defaults to {!Backend.compiled};
    [mode], when given, overrides [backend] with the structural monitor
    in that mode (strict mode disables routing for that checker).
    [latency_sample_rate] (default 64, rounded up to a power of two)
    samples one delivery in N into [loseq_hub_dispatch_ns] and the
    dispatch spans; [Invalid_argument] when [< 1].  Raises
    {!Wellformed.Ill_formed} (and whatever the factory raises). *)

val host : ?latency_sample_rate:int -> t -> Checker.t -> strict:bool -> unit
(** Host a detached checker built with {!Checker.make} (advanced: a
    custom backend already constructed). *)

val host_flat :
  ?latency_sample_rate:int -> t -> Flat.t -> Backend.t array -> Checker.t list
(** Host a whole flat suite engine directly: one tap subscription per
    interned name walks the engine's dispatch row ({!Loseq_core.Flat.step_name})
    instead of one closure per (checker, alphabet-name).  [views] must
    be the per-checker backends of {e that} engine
    ({!Loseq_core.Backend.flat_suite}); the returned checkers (entry
    order, also appended to {!checkers}) carry reports, finalization
    and violation hooks — verdict decisions reach them through the
    engine's notify callback.  These checkers never see individual
    deliveries, so their [events_seen]/coverage stay empty; the
    [loseq_backend_steps_total{backend=flat}] counter mirrors the
    engine's step index instead (a decided checker takes no further
    steps), while [loseq_hub_deliveries_total] counts one delivery per
    listening checker, as {!host} does.  The deadline wheel re-settles only
    when the engine's deadline generation moves.  Live sessions host
    through here ({!Suite.attach_hub_flat}). *)

val tap : t -> Tap.t
val checkers : t -> Checker.t list
(** In {!add} order. *)

val size : t -> int

val on_violation : t -> (Checker.t -> Loseq_core.Diag.violation -> unit) -> unit
(** Attach a violation hook to every checker currently hosted — the
    incremental-report path a streaming session uses to surface
    violations the moment they happen (each checker still reports at
    most once). *)

val resync : t -> unit
(** Re-read every hosted checker's [next_deadline] and re-park the
    merged deadline wheel — required after the checkers' backend states
    were overwritten externally (checkpoint resume).  Deadlines already
    in the past expire immediately. *)

val finalize : t -> unit
(** {!Checker.finalize} every checker at the current simulation time. *)

val report : t -> Report.t
(** A fresh report over all hosted checkers, in {!add} order. *)

val all_passed : t -> bool
