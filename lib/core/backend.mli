(** The unified monitor-backend interface.

    Three monitor strategies coexist in the code base: the structural
    {!Monitor} (the paper's Drct construction, literally — rich
    diagnostics, coverage-grade introspection), the flat-table
    {!Compiled} fast path (a step is a handful of array reads) and the
    formula-progression ViaPSL monitor of [Loseq_psl.Progress].  Before
    this module each hosting layer (checkers, suites, the CLI, the SoC
    case study) was hard-wired to one of them; now every host targets
    one value type, {!t}, and a backend is chosen per checker with a
    [Pattern.t -> t] factory.

    A backend is a record of closures over hidden monitor state — the
    OCaml idiom for a first-class object with capabilities.  The
    mandatory operations are the hosting contract
    ([step]/[check_time]/[next_deadline]/[finalize]/[verdict]/[reset]);
    optional capabilities ([states], [acceptable], [ops]) expose what
    only some strategies can provide, and hosts degrade gracefully when
    they are [None].

    Verdicts are {e shared} with {!Monitor} (the type equation below),
    so existing verdict-matching code hosts any backend unchanged.
    Backends whose native diagnostics are coarser (compiled, PSL)
    synthesize a {!Diag.violation} with what they know. *)

type verdict = Monitor.verdict =
  | Running
  | Satisfied
  | Violated of Diag.violation

type t = {
  label : string;  (** ["direct"], ["compiled"], ["psl"], ... *)
  pattern : Pattern.t;
  alphabet : Name.Set.t;
      (** [α(pattern)] — the routing key: a hosting layer must deliver
          every event whose name is in this set and may skip all
          others. *)
  step : Trace.event -> verdict;
      (** Consume one event.  Sticky after a decided verdict.  Events
          outside {!alphabet} are ignored (lenient). *)
  prepare : Name.t -> int -> verdict;
      (** [prepare name] resolves [name] once (interning, category-row
          lookup, ...) and returns a stepper [fun time -> ...]
          equivalent to [step { name; time }] — the fast path for a
          per-name-routed host that subscribes one closure per alphabet
          name. *)
  check_time : now:int -> verdict;
      (** Report a deadline miss if [now] exceeds an armed deadline. *)
  next_deadline : unit -> int option;
      (** Earliest time at which {!check_time} could report a violation
          — for scheduling a single timeout in a simulation host. *)
  finalize : now:int -> verdict;  (** End of observation at [now]. *)
  verdict : unit -> verdict;
  reset : unit -> unit;
      (** Back to the initial configuration; compiled tables are
          reused, structural monitors are rebuilt. *)
  states : (unit -> Recognizer.state list list) option;
      (** Recognizer states per fragment, for state coverage
          (structural backend only). *)
  acceptable : (unit -> Name.Set.t) option;
      (** Names tolerated as the next event (structural backend
          only). *)
  ops : (unit -> int) option;
      (** Elementary operations executed so far, when the strategy
          meters them. *)
  persist : (unit -> Compiled.persisted) option;
      (** Exact serializable run state, for checkpoint/resume of
          streaming monitors (compiled backend only). *)
  restore : (Compiled.persisted -> unit) option;
      (** Overwrite the run state with a {!t.persist}ed one (compiled
          and flat backends; same-pattern monitors). *)
}

val make :
  label:string ->
  pattern:Pattern.t ->
  ?alphabet:Name.Set.t ->
  step:(Trace.event -> verdict) ->
  ?prepare:(Name.t -> int -> verdict) ->
  ?check_time:(now:int -> verdict) ->
  ?next_deadline:(unit -> int option) ->
  ?finalize:(now:int -> verdict) ->
  verdict:(unit -> verdict) ->
  reset:(unit -> unit) ->
  ?states:(unit -> Recognizer.state list list) ->
  ?acceptable:(unit -> Name.Set.t) ->
  ?ops:(unit -> int) ->
  ?persist:(unit -> Compiled.persisted) ->
  ?restore:(Compiled.persisted -> unit) ->
  unit ->
  t
(** Build a backend, defaulting the optional operations: [alphabet]
    defaults to [Pattern.alpha pattern]; [prepare] to a [step] wrapper;
    [check_time]/[finalize] to deadline-free no-ops returning the
    current verdict; [next_deadline] to [fun () -> None]. *)

(** {1 Factories} *)

type factory = Pattern.t -> t
(** What hosts take as a [?backend] argument.  Factories raise
    {!Wellformed.Ill_formed} on ill-formed patterns (and the ViaPSL
    factory additionally [Invalid_argument] on ranges too wide to
    materialize a formula). *)

val direct : ?mode:Monitor.mode -> factory
(** The structural {!Monitor}: rich diagnostics, state coverage,
    [acceptable], metered ops.  [mode] defaults to lenient; strict mode
    only makes sense for a host that delivers {e all} events, not just
    the alphabet-routed ones. *)

val compiled : factory
(** The {!Compiled} flat-table fast path — the production default. *)

type suite_factory = (string * Pattern.t) list -> t array
(** Suite-level compilation: hosts that monitor a whole labelled suite
    hand it over in one call so the factory can share state across
    checkers.  The returned array is in entry order. *)

val flat_suite : (string * Pattern.t) list -> Flat.t * t array
(** Compile the whole suite into one {!Flat} engine and return it with
    one backend view per entry (label ["flat"]).  The views share the
    engine's packed state array — what {!Loseq_verif.Hub.host_flat}
    takes to host the suite engine-direct. *)

val flat_views : suite_factory
(** {!flat_suite} without the engine handle — what generic
    [?suite_backend] host parameters take. *)

val flat_engine_views : Flat.t -> t array
(** Backend views over an {e existing} engine — e.g. one produced by
    {!Flat.slice}, so a sharded host can lift each shard's sub-engine
    without recompiling the suite. *)

val flat : factory
(** A single-pattern flat engine (a one-entry suite) — [--backend flat]
    on per-pattern hosts.  The suite-level entry points above are where
    the flavor earns its keep. *)

val of_monitor : Monitor.t -> t
(** Wrap an existing structural monitor ([reset] rebuilds it in lenient
    mode). *)

val of_compiled : Compiled.t -> t
(** Wrap an existing compiled monitor ([reset] reuses its tables). *)

(** {1 Signature-style extension}

    Strategies implemented outside this library (the ViaPSL progression
    monitor, future remote/sharded monitors) implement
    {!MONITOR_BACKEND} and {!pack} it, or build a {!t} directly with
    {!make}. *)

module type MONITOR_BACKEND = sig
  type state

  val label : string
  val create : Pattern.t -> state
  val alphabet : state -> Name.Set.t
  val step : state -> Trace.event -> verdict
  val check_time : state -> now:int -> verdict
  val next_deadline : state -> int option
  val finalize : state -> now:int -> verdict
  val verdict : state -> verdict
  val reset : state -> unit
end

val pack : (module MONITOR_BACKEND) -> factory

(** {1 Telemetry} *)

val instrument : Loseq_obs.Metrics.t -> t -> t
(** The same backend with its [step]/[prepare] paths counting into
    [loseq_backend_steps_total{backend=label}] on the given registry.
    Hosts apply this only when handed a live sink — an uninstrumented
    backend stays closure-for-closure what the factory built. *)

(** {1 Helpers} *)

val passed : verdict -> bool
(** [true] unless [Violated]. *)

(** {1 Three-valued in-flight verdicts}

    A speculative host ({!Loseq_ooo.Engine}) evaluates events the
    moment they arrive, so its per-checker verdict carries an extra
    dimension: has the watermark passed the decision point, making it
    definitive?  [Pass]/[Fail] are {e settled} — no admissible late
    event can change them; [Unsettled] verdicts may still be rolled
    back and replayed. *)

type tri = Pass | Fail | Unsettled

val tri_of_verdict : settled:bool -> verdict -> tri
(** [Unsettled] unless [settled]; then [Fail] for [Violated],
    [Pass] otherwise. *)

val tri_to_string : tri -> string
(** ["pass"], ["fail"] or ["unsettled"]. *)

val pp_tri : Format.formatter -> tri -> unit

val pp_verdict : Format.formatter -> verdict -> unit
(** ["pass (running)"], ["pass (satisfied)"] or ["FAIL: ..."] — the
    rendering hosts print in reports. *)
