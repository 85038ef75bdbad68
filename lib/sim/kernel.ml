(* Binary min-heap of (time, sequence, thunk): sequence numbers make the
   pop order deterministic among equal timestamps. *)
module Heap = struct
  type entry = { time : Time.t; seq : int; thunk : unit -> unit }
  type t = { mutable data : entry array; mutable size : int }

  let dummy = { time = Time.zero; seq = 0; thunk = ignore }
  let create () = { data = Array.make 64 dummy; size = 0 }

  let less a b =
    let c = Time.compare a.time b.time in
    if c <> 0 then c < 0 else a.seq < b.seq

  let push h entry =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- entry;
    while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let peek h = if h.size = 0 then None else Some h.data.(0)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      h.data.(h.size) <- dummy;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue_ := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

type t = {
  mutable now : Time.t;
  heap : Heap.t;
  runnable : (unit -> unit) Queue.t;
  delta : (unit -> unit) Queue.t;
  random : Random.State.t;
  mutable seq : int;
  mutable spawned : int;
  mutable delivered : int;
  mutable stop_requested : bool;
  mutable was_stopped : bool;
}

type event = {
  kernel : t;
  name : string;
  mutable waiters : (unit -> unit) list;
}

type handle = { mutable cancelled : bool }

let create ?(seed = 0x5eed) () =
  {
    now = Time.zero;
    heap = Heap.create ();
    runnable = Queue.create ();
    delta = Queue.create ();
    random = Random.State.make [| seed |];
    seq = 0;
    spawned = 0;
    delivered = 0;
    stop_requested = false;
    was_stopped = false;
  }

let now t = t.now
let rng t = t.random

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* Effect-based coroutines: a process suspends by handing its
   resumption thunk to a registration function. *)
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let run_thread body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  register (fun () -> continue k ()))
          | _ -> None);
    }

let spawn ?name t body =
  ignore name;
  t.spawned <- t.spawned + 1;
  Queue.add (fun () -> run_thread body) t.runnable

let schedule_thunk t ~at thunk =
  let handle = { cancelled = false } in
  Heap.push t.heap
    {
      Heap.time = at;
      seq = next_seq t;
      thunk = (fun () -> if not handle.cancelled then thunk ());
    };
  handle

let schedule t ~after thunk = schedule_thunk t ~at:(Time.add t.now after) thunk

let schedule_at t ~at thunk =
  if Time.( < ) at t.now then
    invalid_arg "Kernel.schedule_at: time is in the past";
  schedule_thunk t ~at thunk

let cancel handle = handle.cancelled <- true

let event ?(name = "event") t = { kernel = t; name; waiters = [] }
let event_name ev = ev.name

let release_waiters ev ~into =
  let waiters = List.rev ev.waiters in
  ev.waiters <- [];
  List.iter
    (fun w ->
      ev.kernel.delivered <- ev.kernel.delivered + 1;
      Queue.add w into)
    waiters

let notify ev = release_waiters ev ~into:ev.kernel.delta
let notify_immediate ev = release_waiters ev ~into:ev.kernel.runnable

let notify_after ev delay =
  let t = ev.kernel in
  ignore (schedule t ~after:delay (fun () -> notify_immediate ev))

let wait ev = Effect.perform (Suspend (fun resume -> ev.waiters <- resume :: ev.waiters))

let wait_any events =
  let winner = ref None in
  Effect.perform
    (Suspend
       (fun resume ->
         let fired = ref false in
         List.iter
           (fun ev ->
             ev.waiters <-
               (fun () ->
                 if not !fired then begin
                   fired := true;
                   winner := Some ev;
                   resume ()
                 end)
               :: ev.waiters)
           events));
  match !winner with Some ev -> ev | None -> assert false

let wait_timeout ev duration =
  let outcome = ref `Timeout in
  let kernel = ev.kernel in
  Effect.perform
    (Suspend
       (fun resume ->
         let fired = ref false in
         let fire o () =
           if not !fired then begin
             fired := true;
             outcome := o;
             resume ()
           end
         in
         ev.waiters <- fire `Event :: ev.waiters;
         ignore (schedule kernel ~after:duration (fire `Timeout))));
  !outcome

let wait_for t duration =
  Effect.perform (Suspend (fun resume -> ignore (schedule t ~after:duration resume)))

let wait_loose t lo hi =
  if Time.( < ) hi lo then invalid_arg "Kernel.wait_loose: hi < lo";
  let span = Time.to_ps (Time.sub hi lo) in
  let extra = if span = 0 then 0 else Random.State.int t.random (span + 1) in
  wait_for t (Time.add lo (Time.ps extra))

let pending t =
  (not (Queue.is_empty t.runnable))
  || (not (Queue.is_empty t.delta))
  || Heap.peek t.heap <> None

let stop t = t.stop_requested <- true
let stopped t = t.was_stopped

(* Nothing runnable and nothing due by [u]: {!execute} would only move
   [now] to [u].  A session advances its private kernel to every
   event's timestamp, so this is the common case, and [run] then
   returns before any closure is built. *)
let idle_until t u =
  Queue.is_empty t.runnable
  && Queue.is_empty t.delta
  && (t.heap.Heap.size = 0 || Time.( < ) u t.heap.Heap.data.(0).Heap.time)

let execute t until =
  let within time =
    match until with None -> true | Some u -> Time.( <= ) time u
  in
  let rec eval () =
    if t.stop_requested then t.was_stopped <- true
    else
    match Queue.take_opt t.runnable with
    | Some thunk ->
        thunk ();
        eval ()
    | None ->
        if not (Queue.is_empty t.delta) then begin
          Queue.transfer t.delta t.runnable;
          eval ()
        end
        else begin
          match Heap.peek t.heap with
          | Some entry when within entry.Heap.time ->
              (match Heap.pop t.heap with
              | Some e ->
                  t.now <- Time.max t.now e.Heap.time;
                  Queue.add e.Heap.thunk t.runnable
              | None -> ());
              eval ()
          | Some _ | None -> (
              match until with
              | Some u when Time.( < ) t.now u -> t.now <- u
              | Some _ | None -> ())
        end
  in
  eval ()

let run ?until t =
  t.stop_requested <- false;
  t.was_stopped <- false;
  match until with
  | Some u when idle_until t u -> if Time.( < ) t.now u then t.now <- u
  | _ -> execute t until

let stats t = (t.spawned, t.delivered)
