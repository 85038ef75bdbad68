open Loseq_core

(* Binary min-heap on (time, arrival sequence): the sequence number
   makes releases stable among equal timestamps. *)

type item = { time : int; seq : int; event : Trace.event }

module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace

(* Live-sink counters; [None] on the default noop path, so an
   uninstrumented buffer pays one branch per anomaly.  The occupancy and
   lag gauges are copied from the buffer by a collect hook, when a
   reader looks, not on every mutation. *)
type obs = { dropped : Obs.counter; full : Obs.counter }

(* Flight-recorder categories on the ingest track: one instant per
   admission anomaly, stamped with the event's simulation time as the
   argument. *)
type trc = {
  tr : Tr.t;
  tr_dropped : Tr.cat;
  tr_full : Tr.cat;
}

type t = {
  lateness : int;
  cap : int;
  mutable heap : item array;
  mutable len : int;
  mutable seq : int;
  mutable max_seen : int;  (* -1 before the first event *)
  mutable released : int;  (* last released time, -1 before the first *)
  mutable dropped_late : int;
  mutable reordered : int;
  obs : obs option;
  trc : trc option;
}

let create ?(metrics = Obs.noop) ?(trace = Tr.noop) ?(capacity = 1024)
    ~lateness () =
  if lateness < 0 then invalid_arg "Reorder.create: negative lateness";
  if capacity <= 0 then invalid_arg "Reorder.create: capacity must be positive";
  let gauges =
    if Obs.is_live metrics then
      Some
        ( Obs.gauge metrics ~name:"loseq_reorder_occupancy"
            ~help:"Events buffered awaiting their watermark" (),
          Obs.gauge metrics ~name:"loseq_reorder_watermark_lag"
            ~help:"Ticks between the furthest seen and the last \
                   released timestamp" () )
    else None
  in
  let obs =
    if Obs.is_live metrics then
      Some
        {
          dropped =
            Obs.counter metrics ~name:"loseq_reorder_dropped_late_total"
              ~help:"Events beyond the lateness bound, discarded" ();
          full =
            Obs.counter metrics ~name:"loseq_reorder_full_total"
              ~help:"Pushes refused because the window was full \
                     (backpressure hits)" ();
        }
    else None
  in
  let trc =
    if Tr.is_live trace then
      Some
        {
          tr = trace;
          tr_dropped = Tr.intern trace ~track:"ingest" "dropped_late";
          tr_full = Tr.intern trace ~track:"ingest" "window_full";
        }
    else None
  in
  let t =
    {
      lateness;
      cap = capacity;
      heap = [||];
      len = 0;
      seq = 0;
      max_seen = -1;
      released = -1;
      dropped_late = 0;
      reordered = 0;
      obs;
      trc;
    }
  in
  (match gauges with
  | Some (occupancy, lag) ->
      Obs.on_collect metrics (fun () ->
          Obs.set occupancy t.len;
          Obs.set lag
            (if t.max_seen < 0 then 0
             else Int.max 0 (t.max_seen - Int.max t.released 0)))
  | None -> ());
  t

let lateness t = t.lateness
let capacity t = t.cap
let length t = t.len
let is_empty t = t.len = 0
let max_seen t = t.max_seen
let dropped_late t = t.dropped_late
let reordered t = t.reordered

let released t = t.released
let floor t = Int.max (t.max_seen - t.lateness) t.released

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let heap_push t item =
  if t.len = Array.length t.heap then begin
    let grown = Array.make (max 8 (2 * t.len)) item in
    Array.blit t.heap 0 grown 0 t.len;
    t.heap <- grown
  end;
  t.heap.(t.len) <- item;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let heap_pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    sift_down t 0;
    Some top
  end

type push_result = [ `Queued | `Dropped_late | `Full ]

let push t (e : Trace.event) : push_result =
  if e.time < floor t then begin
    t.dropped_late <- t.dropped_late + 1;
    (match t.obs with Some o -> Obs.incr o.dropped | None -> ());
    (match t.trc with
    | Some c -> Tr.emit c.tr c.tr_dropped Tr.Instant e.time
    | None -> ());
    `Dropped_late
  end
  else if t.len >= t.cap then begin
    (match t.obs with Some o -> Obs.incr o.full | None -> ());
    (match t.trc with
    | Some c -> Tr.emit c.tr c.tr_full Tr.Instant e.time
    | None -> ());
    `Full
  end
  else begin
    if t.max_seen >= 0 && e.time < t.max_seen then
      t.reordered <- t.reordered + 1;
    if e.time > t.max_seen then t.max_seen <- e.time;
    t.seq <- t.seq + 1;
    heap_push t { time = e.time; seq = t.seq; event = e };
    `Queued
  end

let release t item =
  t.released <- Int.max t.released item.time;
  item.event

let drain t ~emit =
  let wm = t.max_seen - t.lateness in
  let count = ref 0 in
  let continue_ = ref true in
  while !continue_ && t.len > 0 do
    if t.heap.(0).time <= wm then begin
      match heap_pop t with
      | Some item ->
          emit (release t item);
          incr count
      | None -> ()
    end
    else continue_ := false
  done;
  !count

let pop_oldest t =
  match heap_pop t with
  | Some item -> Some (release t item)
  | None -> None

let flush t ~emit =
  let count = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match heap_pop t with
    | Some item ->
        emit (release t item);
        incr count
    | None -> continue_ := false
  done;
  !count

let note_delivered t time =
  if time > t.max_seen then t.max_seen <- time;
  t.released <- Int.max t.released time

type snapshot = {
  occupancy : int;
  dropped_late : int;
  watermark : int;
  max_seen : int;
}

let stats (t : t) : snapshot =
  {
    occupancy = t.len;
    dropped_late = t.dropped_late;
    watermark = (if t.max_seen < 0 then -1 else t.max_seen - t.lateness);
    max_seen = t.max_seen;
  }

let pending t =
  let items = Array.to_list (Array.sub t.heap 0 t.len) in
  List.map
    (fun i -> i.event)
    (List.sort
       (fun a b -> if less a b then -1 else if less b a then 1 else 0)
       items)

let restore t ~max_seen ~released ~dropped_late ~reordered events =
  if t.len > 0 || t.seq > 0 || t.max_seen >= 0 then
    Error "Reorder.restore: buffer already used"
  else if List.length events > t.cap then
    Error "Reorder.restore: pending events exceed capacity"
  else begin
    t.max_seen <- max_seen;
    t.released <- released;
    t.dropped_late <- dropped_late;
    t.reordered <- reordered;
    List.iter
      (fun (e : Trace.event) ->
        t.seq <- t.seq + 1;
        heap_push t { time = e.time; seq = t.seq; event = e })
      events;
    Ok ()
  end
