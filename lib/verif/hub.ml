open Loseq_core
open Loseq_sim

(* ---- merged deadline wheel -------------------------------------------- *)

(* A binary min-heap of (deadline, entry) with lazy invalidation: an
   entry records the deadline it is currently armed for; stale heap
   items (the entry re-armed or disarmed since the push) are dropped
   when they surface.  One kernel timeout is kept scheduled at the heap
   minimum — however many timed checkers the hub hosts. *)

type entry = { checker : Checker.t; mutable armed : int (* -1 = unarmed *) }

module Wheel = struct
  type t = {
    mutable heap : (int * entry) array;
    mutable len : int;
  }

  let create () = { heap = [||]; len = 0 }

  let swap h i j =
    let tmp = h.heap.(i) in
    h.heap.(i) <- h.heap.(j);
    h.heap.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst h.heap.(i) < fst h.heap.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && fst h.heap.(l) < fst h.heap.(!smallest) then smallest := l;
    if r < h.len && fst h.heap.(r) < fst h.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h deadline entry =
    if h.len = Array.length h.heap then begin
      (* Grow, filling fresh slots with the pushed item (never read
         beyond [len]). *)
      let grown = Array.make (max 8 (2 * h.len)) (deadline, entry) in
      Array.blit h.heap 0 grown 0 h.len;
      h.heap <- grown
    end;
    h.heap.(h.len) <- (deadline, entry);
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.heap.(0) in
      h.len <- h.len - 1;
      h.heap.(0) <- h.heap.(h.len);
      sift_down h 0;
      Some top
    end

  (* Smallest non-stale deadline, dropping stale items on the way. *)
  let rec min_live h =
    if h.len = 0 then None
    else
      let deadline, entry = h.heap.(0) in
      if entry.armed = deadline then Some deadline
      else begin
        ignore (pop h);
        min_live h
      end
end

(* ---- telemetry --------------------------------------------------------- *)

(* Present only when the hub was created with a live metrics sink; the
   default (noop) hub carries [None] and pays one predictable branch per
   delivery.  Dispatch latency is sampled (one delivery in
   [latency_sample_rate], 64 by default) so the clock reads stay far
   below the paper's per-event monitor cost. *)
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace

(* Flight-recorder categories, interned once at hub creation.  Dispatch
   spans ride the latency-sampled path and reuse its two clock reads
   (emit_at with the already-read stamps), so tracing adds zero clock
   reads to the event path; deadline firings and wheel-depth samples
   are rare enough to stamp directly. *)
type trc = {
  tr : Tr.t;
  tr_dispatch : Tr.cat;
  tr_firing : Tr.cat;
  tr_wheel : Tr.cat;
}

let make_trc trace =
  {
    tr = trace;
    tr_dispatch = Tr.intern trace ~track:"hub" "dispatch";
    tr_firing = Tr.intern trace ~track:"hub" "deadline_fire";
    tr_wheel = Tr.intern trace ~track:"hub" "wheel_depth";
  }

(* The sampling mask: 1-in-[rate] with [rate] rounded up to a power of
   two, so the phase test stays one [land]. *)
let sample_mask rate =
  if rate < 1 then invalid_arg "Hub: latency_sample_rate must be >= 1";
  let rec up k = if k >= rate then k else up (k * 2) in
  up 1 - 1

let default_sample_rate = 64

type obs = {
  metrics : Obs.t;
  dispatched : Obs.counter;  (* events entering the hub's tap *)
  satisfied : Obs.counter;
  violated : Obs.counter;
  wheel_depth : Obs.gauge;
  firings : Obs.counter;
  dispatch_ns : Obs.histogram;
  mutable rebase : (unit -> unit) list;
      (* re-baseline hooks for read-time delta counters, run by
         [resync] after an external state restore *)
}

let latency_buckets =
  [| 100; 250; 500; 1_000; 2_500; 5_000; 10_000; 50_000; 250_000; 1_000_000 |]

let make_obs metrics tap =
  let dispatched =
    Obs.counter metrics ~name:"loseq_events_dispatched_total"
      ~help:"Events entering the hub (one per tap emission)" ()
  in
  (* The tap already counts every emission (including names no checker
     listens to), so the hub mirrors it at read time instead of paying
     an extra subscription on every event. *)
  Obs.on_collect metrics (fun () -> Obs.set_counter dispatched (Tap.count tap));
  {
    metrics;
    dispatched;
    satisfied =
      Obs.counter metrics ~name:"loseq_checker_transitions_total"
        ~help:"Checker verdict transitions"
        ~labels:[ ("verdict", "satisfied") ]
        ();
    violated =
      Obs.counter metrics ~name:"loseq_checker_transitions_total"
        ~help:"Checker verdict transitions"
        ~labels:[ ("verdict", "violated") ]
        ();
    wheel_depth =
      Obs.gauge metrics ~name:"loseq_hub_wheel_depth"
        ~help:"Deadline-wheel heap depth (live + stale entries)" ();
    firings =
      Obs.counter metrics ~name:"loseq_hub_deadline_firings_total"
        ~help:"Deadline expiries polled through the merged wheel" ();
    dispatch_ns =
      Obs.histogram metrics ~name:"loseq_hub_dispatch_ns"
        ~help:
          "Per-dispatch latency in nanoseconds, sampled 1 in N dispatches \
           (N = --latency-sample-rate, default 64)"
        ~buckets:latency_buckets ();
    rebase = [];
  }

type t = {
  tap : Tap.t;
  mutable entries_rev : entry list;
  wheel : Wheel.t;
  mutable scheduled : (int * Kernel.handle) option;
      (* deadline the kernel timeout is parked at *)
  obs : obs option;
  trc : trc option;
}

let create ?(metrics = Obs.noop) ?(trace = Tr.noop) tap =
  {
    tap;
    entries_rev = [];
    wheel = Wheel.create ();
    scheduled = None;
    obs = (if Obs.is_live metrics then Some (make_obs metrics tap) else None);
    trc = (if Tr.is_live trace then Some (make_trc trace) else None);
  }

let tap t = t.tap
let checkers t = List.rev_map (fun e -> e.checker) t.entries_rev
let size t = List.length t.entries_rev

(* Keep the single kernel timeout parked at the wheel's live minimum. *)
let rec settle t =
  match Wheel.min_live t.wheel with
  | None -> (
      match t.scheduled with
      | Some (_, handle) ->
          Kernel.cancel handle;
          t.scheduled <- None
      | None -> ())
  | Some deadline -> (
      match t.scheduled with
      | Some (at, _) when at = deadline -> ()
      | Some (_, handle) ->
          Kernel.cancel handle;
          t.scheduled <- None;
          settle t
      | None ->
          let kernel = Tap.kernel t.tap in
          let at = Time.ps (deadline + 1) in
          if Time.( < ) (Kernel.now kernel) at then
            t.scheduled <-
              Some (deadline, Kernel.schedule_at kernel ~at (fun () -> fire t))
          else begin
            (* Already past: expire it now rather than scheduling in the
               past. *)
            expire t;
            settle t
          end)

(* Poll every armed checker whose deadline has elapsed ([check_time]
   reports a miss when [now > deadline]); stale heap items are dropped,
   live future items are put back untouched. *)
and expire t =
  let now = Tap.now_ps t.tap in
  let rec drain () =
    match Wheel.pop t.wheel with
    | None -> ()
    | Some (d, entry) ->
        if entry.armed <> d then drain () (* stale *)
        else if d >= now then Wheel.push t.wheel d entry
        else begin
          entry.armed <- -1;
          (match t.obs with
          | Some o -> Obs.incr o.firings
          | None -> ());
          (match t.trc with
          | Some c -> Tr.emit c.tr c.tr_firing Tr.Instant d
          | None -> ());
          Checker.poll entry.checker ~now;
          rearm t entry;
          drain ()
        end
  in
  drain ()

and fire t =
  t.scheduled <- None;
  expire t;
  settle t;
  (match t.trc with
  | Some c -> Tr.emit c.tr c.tr_wheel Tr.Count t.wheel.Wheel.len
  | None -> ());
  match t.obs with
  | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
  | None -> ()

and rearm t entry =
  match Checker.next_deadline entry.checker with
  | None -> entry.armed <- -1
  | Some deadline ->
      if entry.armed <> deadline then begin
        entry.armed <- deadline;
        Wheel.push t.wheel deadline entry
      end

let after_delivery t entry =
  rearm t entry;
  settle t

(* With a live sink, every hosted checker contributes to the transition
   counters: satisfied rounds through the step-path transition hook,
   violations through the once-per-checker violation hook (which also
   covers deadline-driven misses the step hook never sees). *)
let observe_checker o checker =
  Checker.on_transition checker (fun ~before ~after ->
      match (before, after) with
      | Backend.Running, Backend.Satisfied -> Obs.incr o.satisfied
      | _, (Backend.Running | Backend.Satisfied | Backend.Violated _) -> ());
  Checker.on_violation checker (fun _ -> Obs.incr o.violated)

let host ?(latency_sample_rate = default_sample_rate) t checker ~strict =
  let mask = sample_mask latency_sample_rate in
  let entry = { checker; armed = -1 } in
  t.entries_rev <- entry :: t.entries_rev;
  let backend = Checker.backend checker in
  (match t.obs with
  | None -> ()
  | Some o ->
      observe_checker o checker;
      (* Hosted monitor steps are exactly the deliveries this hub
         routes, and the checker already counts those in [events_seen]:
         mirror it into the per-flavor family as a delta at read time
         (delta, so other writers of the family keep their share). *)
      let steps =
        Obs.counter o.metrics ~name:"loseq_backend_steps_total"
          ~help:"Monitor steps executed, by backend flavor"
          ~labels:[ ("backend", backend.Backend.label) ]
          ()
      in
      let last = ref 0 in
      Obs.on_collect o.metrics (fun () ->
          let seen = Checker.events_seen checker in
          Obs.add steps (seen - !last);
          last := seen);
      (* A checkpoint restore sets [events_seen] to the historical
         total; re-baselining keeps that jump out of the step counter
         (no steps ran in this process for those events). *)
      o.rebase <- (fun () -> last := Checker.events_seen checker) :: o.rebase);
  if strict then
    Tap.subscribe t.tap (fun e ->
        Checker.deliver checker e;
        after_delivery t entry)
  else
    Name.Set.iter
      (fun n ->
        let handler = Checker.routed checker n in
        match (t.obs, t.trc) with
        | None, None ->
            Tap.subscribe_name t.tap n (fun e ->
                handler e;
                after_delivery t entry)
        | obs, trc ->
            (* The just-bumped deliveries count doubles as the 1-in-N
               latency sampling phase — no separate phase cell (a local
               cell stands in when only the flight recorder is live).
               The clock is CLOCK_MONOTONIC in nanoseconds (immune to
               NTP steps, fine enough for the sub-microsecond
               buckets). *)
            let sampled =
              match obs with
              | Some o ->
                  let deliveries =
                    Obs.counter o.metrics ~name:"loseq_hub_deliveries_total"
                      ~help:"Routed checker deliveries, by event name"
                      ~labels:[ ("name", Name.to_string n) ]
                      ()
                  in
                  fun () ->
                    Obs.incr deliveries;
                    Obs.counter_value deliveries land mask = 0
              | None ->
                  let phase = ref 0 in
                  fun () ->
                    incr phase;
                    !phase land mask = 0
            in
            Tap.subscribe_name t.tap n (fun e ->
                if sampled () then begin
                  let t0 = Monotonic_clock.now () in
                  (* span begin goes in before the work so records the
                     handler emits (deadline firings) nest inside it in
                     ring order — the ring must stay time-sorted *)
                  (match trc with
                  | Some c ->
                      Tr.emit_at c.tr ~ts_ns:(Int64.to_int t0) c.tr_dispatch
                        Tr.Span_begin 0
                  | None -> ());
                  handler e;
                  after_delivery t entry;
                  let t1 = Monotonic_clock.now () in
                  (match obs with
                  | Some o ->
                      Obs.set o.wheel_depth t.wheel.Wheel.len;
                      Obs.observe o.dispatch_ns
                        (Int64.to_int (Int64.sub t1 t0))
                  | None -> ());
                  match trc with
                  | Some c ->
                      Tr.emit_at c.tr ~ts_ns:(Int64.to_int t1) c.tr_dispatch
                        Tr.Span_end
                        (Int64.to_int (Int64.sub t1 t0))
                  | None -> ()
                end
                else begin
                  handler e;
                  after_delivery t entry
                end))
      backend.Backend.alphabet;
  after_delivery t entry;
  match t.obs with
  | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
  | None -> ()

(* ---- engine-direct hosting --------------------------------------------- *)

(* Host a whole [Flat] engine: one tap subscription per interned name
   steps the engine's CSR dispatch row directly — no per-checker
   closure chain, no per-delivery checker bookkeeping.  Checker views
   exist only for reports, finalization and hooks; verdict decisions
   reach them through the engine's notify callback.  The deadline
   wheel is resettled only when the engine's deadline generation
   moves, so the steady-state event path is step + one int compare. *)
let host_flat ?(latency_sample_rate = default_sample_rate) t eng views =
  let mask = sample_mask latency_sample_rate in
  let module Flat = Loseq_core.Flat in
  let checkers =
    Array.mapi
      (fun ck view ->
        Checker.make ~name:(Flat.label eng ck)
          ~now:(fun () -> Tap.now_ps t.tap)
          view)
      views
  in
  let entries =
    Array.map (fun checker -> { checker; armed = -1 }) checkers
  in
  Array.iter (fun e -> t.entries_rev <- e :: t.entries_rev) entries;
  (match t.obs with
  | None -> ()
  | Some o ->
      Array.iter (observe_checker o) checkers;
      (* The engine's own step index is the steps source — these
         checkers never see deliveries. *)
      let steps =
        Obs.counter o.metrics ~name:"loseq_backend_steps_total"
          ~help:"Monitor steps executed, by backend flavor"
          ~labels:[ ("backend", "flat") ]
          ()
      in
      let last = ref 0 in
      Obs.on_collect o.metrics (fun () ->
          let seen = Flat.steps_total eng in
          Obs.add steps (seen - !last);
          last := seen);
      o.rebase <- (fun () -> last := Flat.steps_total eng) :: o.rebase);
  Flat.set_notify eng
    (Some
       (fun ck ->
         (match t.obs with
         | Some o when Flat.verdict_code eng ck = 1 -> Obs.incr o.satisfied
         | Some _ | None -> ());
         (* violations reach the hooks (and the violated counter set up
            by [observe_checker]) through the checker, exactly once *)
         Checker.sync_external checkers.(ck)));
  let timed = Flat.timed_checkers eng in
  let last_gen = ref (-1) in
  let resettle () =
    Array.iter (fun ck -> rearm t entries.(ck)) timed;
    settle t;
    last_gen := Flat.deadline_generation eng;
    (match t.trc with
    | Some c -> Tr.emit c.tr c.tr_wheel Tr.Count t.wheel.Wheel.len
    | None -> ());
    match t.obs with
    | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
    | None -> ()
  in
  (* With no timed checker the generation counter can never move on an
     event, so the untimed fast path is the bare engine step. *)
  let untimed = Array.length timed = 0 in
  Array.iteri
    (fun gid nm ->
      match (t.obs, t.trc) with
      | None, None when untimed ->
          Tap.subscribe_name t.tap nm (fun e ->
              Flat.step_name eng ~gid ~time:e.Trace.time)
      | None, None ->
          Tap.subscribe_name t.tap nm (fun e ->
              Flat.step_name eng ~gid ~time:e.Trace.time;
              if Flat.deadline_generation eng <> !last_gen then resettle ())
      | obs, trc ->
          let sampled =
            let phase = ref 0 in
            match obs with
            | Some o ->
                (* one event reaches every checker listening to [nm]:
                   count those deliveries, as per-checker hosting does *)
                let deliveries =
                  Obs.counter o.metrics ~name:"loseq_hub_deliveries_total"
                    ~help:"Routed checker deliveries, by event name"
                    ~labels:[ ("name", Name.to_string nm) ]
                    ()
                in
                let listeners = ref 0 in
                for ck = 0 to Flat.size eng - 1 do
                  if Name.Set.mem nm (Flat.alphabet eng ck) then incr listeners
                done;
                let listeners = !listeners in
                fun () ->
                  Obs.add deliveries listeners;
                  incr phase;
                  !phase land mask = 0
            | None ->
                fun () ->
                  incr phase;
                  !phase land mask = 0
          in
          Tap.subscribe_name t.tap nm (fun e ->
              if sampled () then begin
                let t0 = Monotonic_clock.now () in
                (match trc with
                | Some c ->
                    Tr.emit_at c.tr ~ts_ns:(Int64.to_int t0) c.tr_dispatch
                      Tr.Span_begin 0
                | None -> ());
                Flat.step_name eng ~gid ~time:e.Trace.time;
                if (not untimed) && Flat.deadline_generation eng <> !last_gen
                then resettle ();
                let t1 = Monotonic_clock.now () in
                (match obs with
                | Some o ->
                    Obs.observe o.dispatch_ns
                      (Int64.to_int (Int64.sub t1 t0))
                | None -> ());
                match trc with
                | Some c ->
                    Tr.emit_at c.tr ~ts_ns:(Int64.to_int t1) c.tr_dispatch
                      Tr.Span_end
                      (Int64.to_int (Int64.sub t1 t0))
                | None -> ()
              end
              else begin
                Flat.step_name eng ~gid ~time:e.Trace.time;
                if (not untimed) && Flat.deadline_generation eng <> !last_gen
                then resettle ()
              end))
    (Flat.names eng);
  resettle ();
  Array.to_list checkers

let add ?(backend = Backend.compiled) ?mode ?name ?latency_sample_rate t
    pattern =
  let backend =
    match mode with
    | Some m -> Backend.direct ~mode:m pattern
    | None -> backend pattern
  in
  let checker =
    Checker.make ?name ~now:(fun () -> Tap.now_ps t.tap) backend
  in
  host ?latency_sample_rate t checker ~strict:(mode = Some Monitor.Strict);
  checker

let on_violation t hook =
  List.iter
    (fun c -> Checker.on_violation c (fun v -> hook c v))
    (checkers t)

(* After an external state restore: every entry's armed deadline is
   stale — re-read next_deadline, re-park the wheel and the kernel
   timeout.  [settle] expires deadlines already in the past.  Delta
   counters mirroring checker state are re-baselined for the same
   reason: the restore moved their source without executing steps. *)
let resync t =
  List.iter
    (fun entry ->
      entry.armed <- -1;
      rearm t entry)
    (List.rev t.entries_rev);
  (match t.obs with
  | Some o -> List.iter (fun f -> f ()) o.rebase
  | None -> ());
  settle t

let finalize t = List.iter (fun c -> ignore (Checker.finalize c)) (checkers t)

let report t =
  let report = Report.create () in
  List.iter (Report.add report) (checkers t);
  report

let all_passed t = List.for_all Checker.passed (checkers t)
