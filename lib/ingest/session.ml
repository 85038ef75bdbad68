open Loseq_core
open Loseq_verif
module Kernel = Loseq_sim.Kernel
module Time = Loseq_sim.Time
module Tr = Loseq_obs.Trace

(* Session-level flight-recorder category: the backpressure stall span
   around a forced drain (argument of the end record: events forced
   out to admit the blocked one). *)
type trc = { tr : Tr.t; tr_stall : Tr.cat }

type t = {
  suite : Suite.t;
  kernel : Kernel.t;
  tap : Tap.t;
  hub : Hub.t;
  engine : Flat.t;
  reorder : Reorder.t;
  lateness : int;
  window : int;
  trc : trc option;
  mutable accepted : int;
  mutable delivered : int;
  mutable forced : int;
}

let create ?metrics ?(trace = Tr.noop) ?latency_sample_rate ?(lateness = 0)
    ?(window = 1024) suite =
  let kernel = Kernel.create () in
  let tap = Tap.create ~record:false kernel in
  let hub, engine =
    Suite.attach_hub_flat ?metrics ~trace ?latency_sample_rate tap suite
  in
  {
    suite;
    kernel;
    tap;
    hub;
    engine;
    reorder = Reorder.create ?metrics ~trace ~capacity:window ~lateness ();
    lateness;
    window;
    trc =
      (if Tr.is_live trace then
         Some { tr = trace; tr_stall = Tr.intern trace ~track:"ingest" "stall" }
       else None);
    accepted = 0;
    delivered = 0;
    forced = 0;
  }

(* Advance the private kernel to the event's timestamp first: the hub's
   merged deadline wheel fires any deadline that elapses on the way, so
   a deadline-only violation is reported between stream events exactly
   as it would be mid-simulation. *)
let advance t time =
  let until = Time.ps time in
  if Time.( < ) (Kernel.now t.kernel) until then Kernel.run ~until t.kernel

let deliver t (e : Trace.event) =
  advance t e.time;
  Tap.emit_name t.tap e.name;
  t.delivered <- t.delivered + 1

(* In-order fast path: with no reorder margin and nothing buffered an
   admissible event cannot be overtaken, so it skips the heap. *)
let in_order t time =
  t.lateness = 0
  && Reorder.is_empty t.reorder
  && time >= Reorder.floor t.reorder

let offer t (e : Trace.event) =
  if in_order t e.time then begin
    Reorder.note_delivered t.reorder e.time;
    deliver t e;
    t.accepted <- t.accepted + 1;
    `Accepted
  end
  else
    match Reorder.push t.reorder e with
    | `Queued ->
        t.accepted <- t.accepted + 1;
        ignore (Reorder.drain t.reorder ~emit:(deliver t));
        `Accepted
    | `Dropped_late ->
        t.accepted <- t.accepted + 1;
        `Accepted
    | `Full -> `Blocked

let force_drain t =
  match Reorder.pop_oldest t.reorder with
  | Some e ->
      deliver t e;
      t.forced <- t.forced + 1;
      true
  | None -> false

let offer_force t e =
  match offer t e with
  | `Accepted -> ()
  | `Blocked ->
      (* Backpressure stall: drain by force until the event fits.  The
         whole stall is one span — opened when the block was detected
         (so anything the drain emits nests inside it), closed when
         admission succeeded, argument the number of events forced
         out. *)
      (match t.trc with
      | Some c -> Tr.emit c.tr c.tr_stall Tr.Span_begin 0
      | None -> ());
      let drained = ref 0 in
      let rec force () =
        ignore (force_drain t);
        incr drained;
        match offer t e with `Accepted -> () | `Blocked -> force ()
      in
      force ();
      (match t.trc with
      | Some c -> Tr.emit c.tr c.tr_stall Tr.Span_end !drained
      | None -> ())

let port t name =
  (* A name outside the suite is routed to nobody: it is emitted by
     name, so binding it leaves the tap's name table as it is. *)
  let emit =
    match Flat.gid_of_name t.engine name with
    | Some _ -> Tap.port t.tap name
    | None -> fun () -> Tap.emit_name t.tap name
  in
  fun time ->
    if in_order t time then begin
      Reorder.note_delivered t.reorder time;
      advance t time;
      emit ();
      t.delivered <- t.delivered + 1;
      t.accepted <- t.accepted + 1
    end
    else offer_force t { Trace.name; time }

let flush t = ignore (Reorder.flush t.reorder ~emit:(deliver t))

let now t = Time.to_ps (Kernel.now t.kernel)

let finalize ?final_time t =
  flush t;
  let ft =
    match final_time with
    | Some f -> f
    | None -> max (Reorder.max_seen t.reorder) 0
  in
  let ft = max ft (now t) in
  if Time.( < ) (Kernel.now t.kernel) (Time.ps ft) then
    Kernel.run ~until:(Time.ps ft) t.kernel;
  Hub.finalize t.hub;
  Hub.report t.hub

type stats = {
  accepted : int;
  delivered : int;
  reordered : int;
  dropped_late : int;
  forced : int;
}

let stats (t : t) : stats =
  {
    accepted = t.accepted;
    delivered = t.delivered;
    reordered = Reorder.reordered t.reorder;
    dropped_late = Reorder.dropped_late t.reorder;
    forced = t.forced;
  }

let position (t : t) = t.accepted

let on_violation t hook =
  Hub.on_violation t.hub (fun c v -> hook ~name:(Checker.name c) v)

let report t = Hub.report t.hub
let all_passed t = Hub.all_passed t.hub
let suite t = t.suite
let hub t = t.hub
let engine t = t.engine
let kernel t = t.kernel
let reorder t = t.reorder
let lateness t = t.lateness
let window t = t.window

let restore_counters (t : t) ~accepted ~delivered ~forced =
  t.accepted <- accepted;
  t.delivered <- delivered;
  t.forced <- forced

let reorder_certificate ?(budget = 20_000) t =
  Loseq_analysis.Robust.certificate ~budget
    (List.map
       (fun (e : Suite.entry) -> (e.label, e.pattern))
       (suite t))

let reorder_robust ?budget t =
  let cert = reorder_certificate ?budget t in
  Loseq_analysis.Robust.(
    compare_bound cert.bound (Finite (lateness t)) >= 0)
