type verdict = Monitor.verdict =
  | Running
  | Satisfied
  | Violated of Diag.violation

type t = {
  label : string;
  pattern : Pattern.t;
  alphabet : Name.Set.t;
  step : Trace.event -> verdict;
  prepare : Name.t -> int -> verdict;
  check_time : now:int -> verdict;
  next_deadline : unit -> int option;
  finalize : now:int -> verdict;
  verdict : unit -> verdict;
  reset : unit -> unit;
  states : (unit -> Recognizer.state list list) option;
  acceptable : (unit -> Name.Set.t) option;
  ops : (unit -> int) option;
  persist : (unit -> Compiled.persisted) option;
  restore : (Compiled.persisted -> unit) option;
}

let make ~label ~pattern ?alphabet ~step ?prepare ?check_time ?next_deadline
    ?finalize ~verdict ~reset ?states ?acceptable ?ops ?persist ?restore
    () =
  let alphabet =
    match alphabet with Some a -> a | None -> Pattern.alpha pattern
  in
  let prepare =
    match prepare with
    | Some f -> f
    | None -> fun name time -> step { Trace.name; time }
  in
  let check_time =
    match check_time with Some f -> f | None -> fun ~now:_ -> verdict ()
  in
  let next_deadline =
    match next_deadline with Some f -> f | None -> fun () -> None
  in
  let finalize =
    match finalize with Some f -> f | None -> fun ~now -> check_time ~now
  in
  {
    label;
    pattern;
    alphabet;
    step;
    prepare;
    check_time;
    next_deadline;
    finalize;
    verdict;
    reset;
    states;
    acceptable;
    ops;
    persist;
    restore;
  }

type factory = Pattern.t -> t
type suite_factory = (string * Pattern.t) list -> t array

(* ---- structural (Drct, the paper's construction) ---------------------- *)

let of_monitor_gen ~mode monitor0 =
  (* [reset] swaps in a fresh monitor; every closure reads the ref. *)
  let m = ref monitor0 in
  let pattern = Monitor.pattern monitor0 in
  make ~label:"direct" ~pattern
    ~alphabet:(Monitor.alphabet monitor0)
    ~step:(fun e -> Monitor.step !m e)
    ~check_time:(fun ~now -> Monitor.check_time !m ~now)
    ~next_deadline:(fun () -> Monitor.next_deadline !m)
    ~finalize:(fun ~now -> Monitor.finalize !m ~now)
    ~verdict:(fun () -> Monitor.verdict !m)
    ~reset:(fun () -> m := Monitor.create ?mode pattern)
    ~states:(fun () -> Monitor.fragment_states !m)
    ~acceptable:(fun () -> Monitor.acceptable !m)
    ~ops:(fun () -> Monitor.ops !m)
    ()

let of_monitor monitor = of_monitor_gen ~mode:None monitor
let direct ?mode pattern = of_monitor_gen ~mode (Monitor.create ?mode pattern)

(* ---- compiled (flat-table fast path) ---------------------------------- *)

let violation_of_compiled c ~(reason : Diag.reason) ~time ~index =
  {
    Diag.name = None;
    time;
    index;
    fragment = max (Compiled.active_fragment c) 0;
    reason;
  }

let lift_compiled c = function
  | Compiled.Running -> Running
  | Compiled.Satisfied -> Satisfied
  | Compiled.Violated { reason; time; index } ->
      Violated (violation_of_compiled c ~reason ~time ~index)

let of_compiled c =
  make ~label:"compiled"
    ~pattern:(Compiled.pattern c)
    ~alphabet:(Compiled.alphabet c)
    ~step:(fun e -> lift_compiled c (Compiled.step c e))
    ~prepare:(fun name ->
      match Compiled.id_of_name c name with
      | Some id -> fun time -> lift_compiled c (Compiled.step_id c ~id ~time)
      | None -> fun _time -> lift_compiled c (Compiled.verdict c))
    ~check_time:(fun ~now -> lift_compiled c (Compiled.check_time c ~now))
    ~next_deadline:(fun () -> Compiled.next_deadline c)
    ~finalize:(fun ~now -> lift_compiled c (Compiled.finalize c ~now))
    ~verdict:(fun () -> lift_compiled c (Compiled.verdict c))
    ~reset:(fun () -> Compiled.reset c)
    ~persist:(fun () -> Compiled.persist c)
    ~restore:(fun p -> Compiled.restore c p)
    ()

let compiled pattern = of_compiled (Compiled.compile pattern)

(* ---- flat (whole-suite table engine) ----------------------------------- *)

let violation_of_flat eng ck ~(reason : Diag.reason) ~time ~index =
  {
    Diag.name = None;
    time;
    index;
    fragment = max (Flat.active_fragment eng ck) 0;
    reason;
  }

let lift_flat eng ck = function
  | Compiled.Running -> Running
  | Compiled.Satisfied -> Satisfied
  | Compiled.Violated { reason; time; index } ->
      Violated (violation_of_flat eng ck ~reason ~time ~index)

(* One checker of a shared engine, behind the per-checker contract:
   every closure indexes the engine's packed table. *)
let flat_view eng ck =
  let verdict () = lift_flat eng ck (Flat.verdict eng ck) in
  make ~label:"flat"
    ~pattern:(Flat.pattern eng ck)
    ~alphabet:(Flat.alphabet eng ck)
    ~step:(fun e ->
      Flat.step_checker eng ck e;
      if Flat.verdict_code eng ck = 0 then Running else verdict ())
    ~prepare:(fun name ->
      let loc = Flat.local_of_name eng ck name in
      if loc < 0 then fun _time -> verdict ()
      else
        fun time ->
          Flat.step_local eng ck loc ~time;
          if Flat.verdict_code eng ck = 0 then Running else verdict ())
    ~check_time:(fun ~now ->
      Flat.check_time_checker eng ck ~now;
      verdict ())
    ~next_deadline:(fun () -> Flat.next_deadline_checker eng ck)
    ~finalize:(fun ~now ->
      Flat.check_time_checker eng ck ~now;
      verdict ())
    ~verdict
    ~reset:(fun () -> Flat.reset_checker eng ck)
    ~persist:(fun () -> Flat.persist_checker eng ck)
    ~restore:(fun p -> Flat.restore_checker eng ck p)
    ()

let flat_suite entries =
  let eng = Flat.compile entries in
  (eng, Array.init (Flat.size eng) (flat_view eng))

let flat_views entries = snd (flat_suite entries)

let flat_engine_views eng = Array.init (Flat.size eng) (flat_view eng)

let flat pattern =
  let _, views = flat_suite [ ("pattern", pattern) ] in
  views.(0)

(* ---- signature-style extension ---------------------------------------- *)

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

let pack (module B : MONITOR_BACKEND) pattern =
  let s = B.create pattern in
  make ~label:B.label ~pattern ~alphabet:(B.alphabet s)
    ~step:(fun e -> B.step s e)
    ~check_time:(fun ~now -> B.check_time s ~now)
    ~next_deadline:(fun () -> B.next_deadline s)
    ~finalize:(fun ~now -> B.finalize s ~now)
    ~verdict:(fun () -> B.verdict s)
    ~reset:(fun () -> B.reset s)
    ()

(* ---- telemetry --------------------------------------------------------- *)

(* One steps counter per backend flavor, shared across every instrumented
   backend with the same label on the same registry (Metrics deduplicates
   by (name, labels)).  The wrapped [step]/[prepare] keep the original
   closures — the bump is an int store in front of them. *)
let instrument metrics b =
  let steps =
    Loseq_obs.Metrics.counter metrics ~name:"loseq_backend_steps_total"
      ~help:"Monitor steps executed, by backend flavor"
      ~labels:[ ("backend", b.label) ]
      ()
  in
  let step e =
    Loseq_obs.Metrics.incr steps;
    b.step e
  in
  let prepare name =
    let f = b.prepare name in
    fun time ->
      Loseq_obs.Metrics.incr steps;
      f time
  in
  { b with step; prepare }

(* ---- helpers ----------------------------------------------------------- *)

let passed = function Running | Satisfied -> true | Violated _ -> false

(* ---- three-valued in-flight verdicts ----------------------------------- *)

type tri = Pass | Fail | Unsettled

let tri_of_verdict ~settled v =
  if not settled then Unsettled
  else match v with Running | Satisfied -> Pass | Violated _ -> Fail

let tri_to_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Unsettled -> "unsettled"

let pp_tri ppf t = Format.pp_print_string ppf (tri_to_string t)

let pp_verdict ppf = function
  | Running -> Format.pp_print_string ppf "pass (running)"
  | Satisfied -> Format.pp_print_string ppf "pass (satisfied)"
  | Violated v -> Format.fprintf ppf "FAIL: %a" Diag.pp_violation v
