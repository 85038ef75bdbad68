(* The traced layer ladder: the workload's inputs replayed in process
   through each layer's public functions, with the benchmark's own
   spans around every call, so that each layer's share of serve's cost
   can be read off.  Nothing inside the program is instrumented.

   Rungs (all on the same inputs serve reads):
   - codec.lsqb / codec.csv: Decoder.feed, and serve's CSV line split +
     Trace_io.parse_csv_line, one span per 64 KiB chunk;
   - reorder: the session's admission logic (in-order fast path or
     Reorder.push + drain, force-drain when full) with the workload's
     lateness;
   - hub: Tap.emit_name into a hub hosting the suite;
   - session: Session.offer_force (reorder + kernel clock + hub + step);
   - engine.compiled / engine.flat: the step functions alone, routed;
   - provenance.record: the per-event ring push;
   - ooo: Ooo.Engine.offer with the workload's lateness;
   - top: serve's stream phase in process — decode, admission
     (session or speculative engine), provenance, checkpoints at the
     workload's cadence, finalize, failed-verdict minimization — run
     once with spans and once without;
   - setup: Suite.load, Session.create, the cold reorder certificate.

   Event-level calls are grouped into spans of [batch] calls, so that
   the clock reads stay a small share of what they time;
   trace.overhead_share reports that share on the top rung.

   A first, untimed round counts (reordered events, residency, report
   lags, rollbacks, ...); later rounds are timed until the run's
   seconds are spent, at least [min_rounds] of them, and each time is
   the median over rounds.  The counts of the top rung must equal
   serve's summary counters on the same input. *)

open Loseq_core
open Loseq_verif
module Session = Loseq_ingest.Session
module Reorder = Loseq_ingest.Reorder
module Codec = Loseq_ingest.Codec
module Checkpoint = Loseq_ingest.Checkpoint
module Engine = Loseq_ooo.Engine

let batch = 4096
let chunk = 65536
let min_rounds = 3
let serve_runs = 3
let cert_budget = 20_000

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- spans ----------------------------------------------------------------- *)

(* Spans kept in memory as parallel int arrays: name, parent span (-1
   at the root), start and end in monotonic ns.  A disabled recorder
   records nothing, which is the untraced run. *)
module Span = struct
  type t = {
    live : bool;
    names : (string, int) Hashtbl.t;
    mutable labels : string array;
    mutable n : int;
    mutable name : int array;
    mutable parent : int array;
    mutable t0 : int array;
    mutable t1 : int array;
    stack : int array;
    mutable depth : int;
  }

  let create live =
    {
      live;
      names = Hashtbl.create 32;
      labels = [||];
      n = 0;
      name = Array.make 1024 0;
      parent = Array.make 1024 0;
      t0 = Array.make 1024 0;
      t1 = Array.make 1024 0;
      stack = Array.make 64 0;
      depth = 0;
    }

  let id t label =
    match Hashtbl.find_opt t.names label with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.names in
        Hashtbl.add t.names label i;
        t.labels <- Array.append t.labels [| label |];
        i

  let grow a = Array.append a (Array.make (Array.length a) 0)

  let enter t name =
    if t.live then begin
      if t.n = Array.length t.name then begin
        t.name <- grow t.name;
        t.parent <- grow t.parent;
        t.t0 <- grow t.t0;
        t.t1 <- grow t.t1
      end;
      let i = t.n in
      t.n <- i + 1;
      t.name.(i) <- name;
      t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
      t.stack.(t.depth) <- i;
      t.depth <- t.depth + 1;
      t.t0.(i) <- now_ns ()
    end

  let exit t =
    if t.live then begin
      t.depth <- t.depth - 1;
      t.t1.(t.stack.(t.depth)) <- now_ns ()
    end

  let span t name f =
    enter t name;
    match f () with
    | v ->
        exit t;
        v
    | exception e ->
        exit t;
        raise e

  (* Total ns of the spans named [label]. *)
  let total t label =
    match Hashtbl.find_opt t.names label with
    | None -> 0
    | Some id ->
        let s = ref 0 in
        for i = 0 to t.n - 1 do
          if t.name.(i) = id then s := !s + (t.t1.(i) - t.t0.(i))
        done;
        !s

  let to_ndjson t oc =
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n" i
        t.labels.(t.name.(i)) t.parent.(i) t.t0.(i) t.t1.(i)
    done
end

(* Run [f i] for every i < n, one span per [batch] calls. *)
let batched sp name n f =
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + batch) in
    Span.enter sp name;
    for j = !i to hi - 1 do
      f j
    done;
    Span.exit sp;
    i := hi
  done

let words () = Gc.minor_words ()

(* ---- inputs ---------------------------------------------------------------- *)

type inputs = {
  w : Workload.t;
  lsqb : string;  (** the chronological trace as LSQB *)
  csv : string;  (** the arrival order as CSV *)
  routes : int array array;  (** per chronological event: the entries it steps *)
  arrival_index : Trace.event -> int;  (** arrival position of an event *)
}

let prepare (w : Workload.t) =
  let routes = Array.map (Workload.route (Workload.routes w.suite)) w.chrono in
  (* Timestamps are distinct, so time identifies an event: binary
     search finds its chronological position, and the inverse of the
     arrival permutation its arrival position. *)
  let chrono_index (e : Trace.event) =
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      let t = w.chrono.(mid).time in
      if t = e.time then mid else if t < e.time then go (mid + 1) hi else go lo (mid - 1)
    in
    go 0 (Array.length w.chrono - 1)
  in
  let arrival_of_chrono = Array.make (Array.length w.chrono) 0 in
  Array.iteri (fun j e -> arrival_of_chrono.(chrono_index e) <- j) w.arrival;
  {
    w;
    lsqb = (match w.format with Workload.Lsqb -> w.input | Csv -> Workload.lsqb_of w.chrono);
    csv = (match w.format with Workload.Csv -> w.input | Lsqb -> Workload.csv_of w.arrival);
    routes;
    arrival_index = (fun e -> arrival_of_chrono.(chrono_index e));
  }

(* ---- decoders -------------------------------------------------------------- *)

let feed_lsqb sp name bytes ~emit =
  let dec = Codec.Decoder.create () in
  let len = String.length bytes in
  let off = ref 0 in
  while !off < len do
    let l = min chunk (len - !off) in
    Span.span sp name (fun () ->
        match Codec.Decoder.feed dec ~off:!off ~len:l bytes ~emit with
        | Ok () -> ()
        | Error msg -> failwith msg);
    off := !off + l
  done;
  match Codec.Decoder.finish dec with Ok () -> () | Error msg -> failwith msg

(* serve's CSV reader: carry the partial line across chunks, split,
   parse each line. *)
let feed_csv sp name bytes ~emit =
  let len = String.length bytes in
  let partial = ref "" and lineno = ref 0 in
  let line l =
    incr lineno;
    match Trace_io.parse_csv_line ~lineno:!lineno l with
    | Ok (Some e) -> emit e
    | Ok None -> ()
    | Error msg -> failwith msg
  in
  let off = ref 0 in
  while !off < len do
    let l = min chunk (len - !off) in
    Span.span sp name (fun () ->
        let data = !partial ^ String.sub bytes !off l in
        let rec split from =
          match String.index_from_opt data from '\n' with
          | None -> partial := String.sub data from (String.length data - from)
          | Some nl ->
              line (String.sub data from (nl - from));
              split (nl + 1)
        in
        split 0);
    off := !off + l
  done;
  if !partial <> "" then line !partial

let decode sp name (x : inputs) ~emit =
  match x.w.format with
  | Workload.Lsqb -> feed_lsqb sp name x.lsqb ~emit
  | Csv -> feed_csv sp name x.csv ~emit

(* ---- counts of one round ----------------------------------------------------- *)

type counts = {
  mutable reordered : int;
  mutable dropped_late : int;
  mutable max_occupancy : int;
  mutable residency_sum : int;
  mutable explorations : int;
  mutable forced : int;
  mutable reorder_lags : int list;
  mutable ooo_lags : int list;
  mutable ooo : Engine.stats option;
  mutable top : (string * int) list;  (** the top rung's summary counters *)
  mutable top_verdicts : (string * bool) list;
  mutable saves : int;
  mutable ckpt_bytes : int;
}

let new_counts () =
  {
    reordered = 0;
    dropped_late = 0;
    max_occupancy = 0;
    residency_sum = 0;
    explorations = 0;
    forced = 0;
    reorder_lags = [];
    ooo_lags = [];
    ooo = None;
    top = [];
    top_verdicts = [];
    saves = 0;
    ckpt_bytes = 0;
  }

(* ---- rungs ----------------------------------------------------------------- *)

(* The session's admission logic, over the arrival order: the in-order
   fast path when nothing can overtake, else the heap.  [release] sees
   every event leaving the buffer. *)
let reorder_rung sp (x : inputs) ~release ~observe =
  let w = x.w in
  let r = Reorder.create ~capacity:1024 ~lateness:w.lateness () in
  let id = Span.id sp "reorder" in
  batched sp id (Array.length w.arrival) (fun j ->
      let e = w.arrival.(j) in
      observe j r;
      if w.lateness = 0 && Reorder.is_empty r && e.time >= Reorder.floor r then begin
        Reorder.note_delivered r e.time;
        release e
      end
      else begin
        let rec admit () =
          match Reorder.push r e with
          | `Queued -> ignore (Reorder.drain r ~emit:release)
          | `Dropped_late -> ()
          | `Full ->
              Option.iter release (Reorder.pop_oldest r);
              admit ()
        in
        admit ()
      end);
  observe (Array.length w.arrival) r;
  ignore (Reorder.flush r ~emit:release);
  r

(* Arrival-index lag of each property's first violation report:
   [deciding] maps a label to the arrival index of the event whose
   chronological delivery decides it. *)
let note_lag ~deciding ~seen ~acc label at =
  if not (Hashtbl.mem seen label) then begin
    Hashtbl.replace seen label ();
    match Hashtbl.find_opt deciding label with
    | Some d -> acc := (at - d) :: !acc
    | None -> ()
  end

let hub_rung sp (x : inputs) =
  let tap = Tap.create ~record:false (Loseq_sim.Kernel.create ()) in
  ignore (Suite.attach_hub tap x.w.suite);
  let chrono = x.w.chrono in
  batched sp (Span.id sp "hub") (Array.length chrono) (fun j -> Tap.emit_name tap chrono.(j).name)

let session_rung sp (x : inputs) ~deciding c =
  let w = x.w in
  let s = Session.create ~lateness:w.lateness w.suite in
  let at = ref 0 and seen = Hashtbl.create 8 and lags = ref [] in
  Session.on_violation s (fun ~name _ -> note_lag ~deciding ~seen ~acc:lags name !at);
  batched sp (Span.id sp "session") (Array.length w.arrival) (fun j ->
      at := j;
      Session.offer_force s w.arrival.(j));
  c.reorder_lags <- !lags;
  s

let compiled_rung sp (x : inputs) =
  let backends =
    Array.of_list (List.map (fun (e : Suite.entry) -> Backend.compiled e.pattern) x.w.suite)
  in
  let chrono = x.w.chrono in
  batched sp (Span.id sp "engine.compiled") (Array.length chrono) (fun j ->
      let r = x.routes.(j) in
      for k = 0 to Array.length r - 1 do
        ignore (backends.(r.(k)).Backend.step chrono.(j))
      done)

let flat_rung sp (x : inputs) =
  let fl = Flat.compile (Suite.entries_of x.w.suite) in
  let chrono = x.w.chrono in
  (* As a host does: re-read the next deadline only when the engine says
     the armed deadlines may have changed, and fire it before stepping
     an event past it. *)
  let generation = ref (-1) and next = ref max_int in
  batched sp (Span.id sp "engine.flat") (Array.length chrono) (fun j ->
      let e = chrono.(j) in
      if Flat.deadline_generation fl <> !generation then begin
        generation := Flat.deadline_generation fl;
        next := Option.value ~default:max_int (Flat.next_deadline fl)
      end;
      if !next < e.time then begin
        Flat.check_time fl ~now:e.time;
        generation := -1
      end;
      Flat.step_event fl e)

let provenance_rung sp (x : inputs) =
  let p = Provenance.create_detached x.w.suite in
  let chrono = x.w.chrono in
  batched sp (Span.id sp "provenance.record") (Array.length chrono) (fun j ->
      let e = chrono.(j) in
      Provenance.record p ~time:e.time e.name)

let ooo_rung sp (x : inputs) ~deciding c =
  let w = x.w in
  (* A speculative report a rollback later retracts does not count:
     the lag is that of the report that stands. *)
  let at = ref 0 and standing = Hashtbl.create 8 in
  let notice = function
    | Engine.Violation { label; _ } ->
        if not (Hashtbl.mem standing label) then Hashtbl.replace standing label !at
    | Retracted { label; _ } -> Hashtbl.remove standing label
    | Settled _ -> ()
  in
  let engine = Engine.create ~notice ~lateness:w.lateness (Suite.entries_of w.suite) in
  batched sp (Span.id sp "ooo") (Array.length w.arrival) (fun j ->
      at := j;
      ignore (Engine.offer engine w.arrival.(j)));
  Engine.finalize engine;
  c.ooo <- Some (Engine.stats engine);
  c.ooo_lags <-
    Hashtbl.fold
      (fun label at acc ->
        match Hashtbl.find_opt deciding label with Some d -> (at - d) :: acc | None -> acc)
      standing []

let pattern_of (w : Workload.t) label = Suite.find w.suite label

(* serve's stream phase, in process, without the NDJSON and the pipe. *)
let top_rung sp (x : inputs) ~ckpt_path c =
  let w = x.w in
  let name = Span.id sp "top" and save_id = Span.id sp "checkpoint.save" in
  let offered = ref 0 in
  let prov, ft, verdicts =
    if w.ooo then begin
      let prov = Provenance.create_detached w.suite in
      let notice = function
        | Engine.Violation { label; violation; _ } ->
            Provenance.note_violation prov ~label violation
        | Retracted { label; _ } -> Provenance.clear_violation prov ~label
        | Settled _ -> ()
      in
      let engine = Engine.create ~notice ~lateness:w.lateness (Suite.entries_of w.suite) in
      decode sp name x ~emit:(fun e ->
          incr offered;
          Provenance.record prov ~time:e.time e.name;
          ignore (Engine.offer engine e));
      Engine.finalize engine;
      let ft = max 0 (Engine.max_seen engine) in
      let report = Engine.report engine in
      List.iter
        (fun (label, v) ->
          if not (Backend.passed v) then
            ignore
              (Provenance.minimize ~final_time:ft ~label
                 (Option.get (pattern_of w label))
                 (Provenance.captured prov label)))
        report;
      let s = Engine.stats engine in
      c.top <-
        [
          ("events", !offered);
          ("applied", s.applied);
          ("late", s.late);
          ("commute_hits", s.commute_hits);
          ("rollbacks", s.rollbacks);
          ("replayed", s.replayed);
          ("dropped_late", s.dropped_late);
        ];
      (prov, ft, List.map (fun (l, v) -> (l, Backend.passed v)) report)
    end
    else begin
      let session = Session.create ~lateness:w.lateness w.suite in
      let prov = Provenance.create (Hub.tap (Session.hub session)) w.suite in
      Session.on_violation session (fun ~name v -> Provenance.note_violation prov ~label:name v);
      let saves = ref 0 in
      decode sp name x ~emit:(fun e ->
          incr offered;
          Session.offer_force session e;
          let pos = Session.position session in
          if w.checkpoint_every > 0 && pos mod w.checkpoint_every = 0 then begin
            Span.enter sp save_id;
            (match Checkpoint.save ~path:ckpt_path session with
            | Ok bytes -> c.ckpt_bytes <- bytes
            | Error msg -> failwith msg);
            Span.exit sp;
            incr saves
          end);
      let report = Session.finalize session in
      let ft = Session.now session in
      let summary = Report.summary report in
      List.iter
        (fun (label, v) ->
          if not (Backend.passed v) then
            ignore
              (Provenance.minimize ~final_time:ft ~label
                 (Option.get (pattern_of w label))
                 (Provenance.captured prov label)))
        summary;
      let s = Session.stats session in
      c.saves <- !saves;
      c.top <-
        [
          ("events", s.accepted);
          ("delivered", s.delivered);
          ("reordered", s.reordered);
          ("dropped_late", s.dropped_late);
          ("forced", s.forced);
        ];
      (prov, ft, List.map (fun (l, v) -> (l, Backend.passed v)) summary)
    end
  in
  c.top_verdicts <- verdicts;
  (prov, ft)

(* Provenance.minimize over every property's chain as the top rung
   captured it: a passing chain costs the one replay that shows it does
   not fail, a failing one the delta-debugging serve pays for its
   verdict record. *)
let minimize_rung sp (x : inputs) (prov, ft) =
  let id = Span.id sp "provenance.minimize" in
  List.iter
    (fun (e : Suite.entry) ->
      Span.span sp id (fun () ->
          ignore
            (Provenance.minimize ~final_time:ft ~label:e.label e.pattern
               (Provenance.captured prov e.label))))
    x.w.suite

let setup_rung sp ~suite_path (x : inputs) c =
  let w = x.w in
  Span.span sp (Span.id sp "setup.load") (fun () ->
      match Suite.load suite_path with Ok _ -> () | Error _ -> failwith "suite load");
  Span.span sp (Span.id sp "setup.compile") (fun () ->
      ignore (Session.create ~lateness:w.lateness w.suite));
  Loseq_analysis.Memo.reset ();
  Span.span sp (Span.id sp "setup.certificate") (fun () ->
      ignore (Loseq_analysis.Robust.certificate ~budget:cert_budget (Suite.entries_of w.suite)));
  c.explorations <- Loseq_analysis.Memo.explorations_performed ()

(* The arrival index of the event whose in-order delivery first
   reports each failing property. *)
let deciding_events (x : inputs) =
  let w = x.w in
  let session = Session.create w.suite in
  let at = ref 0 and d = Hashtbl.create 8 in
  Session.on_violation session (fun ~name _ ->
      if not (Hashtbl.mem d name) then Hashtbl.replace d name (x.arrival_index w.chrono.(!at)));
  Array.iteri
    (fun j e ->
      at := j;
      Session.offer_force session e)
    w.chrono;
  d

(* ---- one round ------------------------------------------------------------- *)

type round = {
  ns : (string * float) list;  (** per-layer ns per event *)
  wpe : (string * float) list;  (** per-layer minor words per event *)
  ms : (string * float) list;  (** per-call times in ms *)
  top_traced_ns : float;
  top_untraced_ns : float;
}

let round ~suite_path ~ckpt_path ~deciding ~counting (x : inputs) c =
  let w = x.w in
  let n = float_of_int (Array.length w.arrival) in
  let sp = Span.create true in
  let timed label f =
    let w0 = words () in
    let v = f () in
    let words = (words () -. w0) /. n in
    (v, (label, float_of_int (Span.total sp label) /. n), (label, words))
  in
  let count_decoded = ref 0 in
  let (), lsqb_ns, lsqb_w =
    timed "codec.lsqb" (fun () ->
        feed_lsqb sp (Span.id sp "codec.lsqb") x.lsqb ~emit:(fun _ -> incr count_decoded))
  in
  let (), csv_ns, csv_w =
    timed "codec.csv" (fun () ->
        feed_csv sp (Span.id sp "codec.csv") x.csv ~emit:(fun _ -> incr count_decoded))
  in
  if !count_decoded <> 2 * Array.length w.arrival then
    failwith "a decoder rung did not return every event";
  (* Residency: arrivals admitted after an event, up to its release. *)
  let current = ref 0 in
  let release, observe =
    if counting then
      ( (fun (e : Trace.event) ->
          c.residency_sum <- c.residency_sum + (!current - x.arrival_index e)),
        fun j r ->
          current := j;
          c.max_occupancy <- max c.max_occupancy (Reorder.length r) )
    else ((fun _ -> ()), fun _ _ -> ())
  in
  let r, reorder_ns, reorder_w = timed "reorder" (fun () -> reorder_rung sp x ~release ~observe) in
  if counting then begin
    c.reordered <- Reorder.reordered r;
    c.dropped_late <- Reorder.dropped_late r
  end;
  let (), hub_ns, hub_w = timed "hub" (fun () -> hub_rung sp x) in
  let session, session_ns, _ = timed "session" (fun () -> session_rung sp x ~deciding c) in
  if counting then c.forced <- (Session.stats session).forced;
  let (), compiled_ns, _ = timed "engine.compiled" (fun () -> compiled_rung sp x) in
  let (), flat_ns, _ = timed "engine.flat" (fun () -> flat_rung sp x) in
  let (), prov_ns, _ = timed "provenance.record" (fun () -> provenance_rung sp x) in
  let (), ooo_ns, ooo_w = timed "ooo" (fun () -> ooo_rung sp x ~deciding c) in
  (* A workload that does not checkpoint still gets the cost of one
     save: the session rung's state at end of stream. *)
  if w.checkpoint_every = 0 then
    Span.span sp (Span.id sp "checkpoint.save") (fun () ->
        match Checkpoint.save ~path:ckpt_path session with
        | Ok bytes -> c.ckpt_bytes <- bytes
        | Error msg -> failwith msg);
  setup_rung sp ~suite_path x c;
  (* Which of the traced and the untraced top rung runs first is drawn
     at random each round. *)
  let top live =
    let s = if live then sp else Span.create false in
    Gc.full_major ();
    let t0 = now_ns () in
    let captured = top_rung s x ~ckpt_path c in
    (float_of_int (now_ns () - t0) /. n, captured)
  in
  let (traced, captured), (untraced, _) =
    if Random.bool () then
      let t = top true in
      (t, top false)
    else
      let u = top false in
      (top true, u)
  in
  minimize_rung sp x captured;
  let per_call label =
    let id = Span.id sp label in
    let xs = ref [] in
    for i = 0 to sp.n - 1 do
      if sp.name.(i) = id then xs := (float_of_int (sp.t1.(i) - sp.t0.(i)) /. 1e6) :: !xs
    done;
    (label, Stats.median !xs)
  in
  let sum_ms label = (label, float_of_int (Span.total sp label) /. 1e6) in
  ( {
      ns =
        [
          lsqb_ns; csv_ns; reorder_ns; hub_ns; session_ns; compiled_ns; flat_ns; prov_ns; ooo_ns;
        ];
      wpe =
        [ lsqb_w; csv_w; reorder_w; hub_w; ooo_w ];
      ms =
        [
          per_call "setup.load";
          per_call "setup.compile";
          per_call "setup.certificate";
          per_call "checkpoint.save";
          sum_ms "provenance.minimize";
        ];
      top_traced_ns = traced;
      top_untraced_ns = untraced;
    },
    sp )

(* ---- the run ------------------------------------------------------------------ *)

let run ~loseq ~seconds ~suite_path ~input_path ~flags (w : Workload.t)
    (reference : Workload.reference) =
  Random.init 7;
  let x = prepare w in
  let dir = Filename.dirname input_path in
  let ckpt_path = Filename.concat dir "ladder.ckpt" in
  let deciding = deciding_events x in
  let c = new_counts () in
  (* Untimed counting round, which is also the warm-up. *)
  let _ = round ~suite_path ~ckpt_path ~deciding ~counting:true x c in
  (* Timed rounds: every round repeats the counts, which must not move. *)
  let t_end = Child.now_s () +. float_of_int seconds in
  let rec rounds acc k last_sp =
    if k >= min_rounds && Child.now_s () >= t_end then (List.rev acc, last_sp)
    else
      let c' = new_counts () in
      let r, sp = round ~suite_path ~ckpt_path ~deciding ~counting:false x c' in
      if c'.top <> c.top || c'.top_verdicts <> c.top_verdicts then
        failwith "the top rung's counts moved between rounds";
      rounds (r :: acc) (k + 1) (Some sp)
  in
  let rs, last_sp = rounds [] 0 None in
  (match last_sp with
  | Some sp ->
      let path =
        Filename.concat (Filename.dirname dir) (Printf.sprintf "spans-%s.ndjson" w.name)
      in
      Out_channel.with_open_bin path (fun oc -> Span.to_ndjson sp oc);
      Printf.printf "spans of the last round: %s\n" path
  | None -> ());
  (* serve on the same input: verdicts against the reference, summary
     counters against the ladder's top rung. *)
  let gc_path = Filename.concat dir "gc.txt" in
  let serves =
    List.init serve_runs (fun _ ->
        Child.run ~loseq ~suite:suite_path ~flags ~input:input_path ~gc_path ~timeout:60.)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let properties = List.length reference in
  let failed = ref 0 in
  List.iter
    (fun (o : Child.outcome) ->
      let bad = Child.missed reference o in
      if bad > 0 then problem "serve: %d properties differ from the reference" bad;
      failed := !failed + bad;
      List.iter
        (fun (key, v) ->
          match Child.summary_int o key with
          | Some s when s = v -> ()
          | got ->
              problem "ladder %s = %d, serve summary %s" key v
                (match got with Some s -> string_of_int s | None -> "missing"))
        c.top;
      if o.checkpoints <> c.saves then
        problem "ladder saved %d checkpoints, serve %d" c.saves o.checkpoints)
    serves;
  let top_bad =
    List.length
      (List.filter
         (fun (l, p, _) -> List.assoc_opt l c.top_verdicts <> Some p)
         reference)
  in
  if top_bad > 0 then problem "ladder: %d verdicts differ from the reference" top_bad;
  failed := !failed + top_bad;
  let med_of f = Stats.median (List.map f rs) in
  let pick l name = List.assoc name l in
  let ns name = med_of (fun r -> pick r.ns name) in
  let wpe name = med_of (fun r -> pick r.wpe name) in
  let ms name = med_of (fun r -> pick r.ms name) in
  let top_ns = med_of (fun r -> r.top_untraced_ns) in
  let serve_ns =
    Stats.median
      (List.filter_map
         (fun (o : Child.outcome) ->
           match Child.summary_int o "events" with
           | Some ev when ev > 0 -> Some (o.stream_s *. 1e9 /. float_of_int ev)
           | _ -> None)
         serves)
  in
  let n = float_of_int (Array.length w.arrival) in
  let fi = float_of_int in
  let ooo = Option.get c.ooo in
  let decoder = match w.format with Workload.Lsqb -> "codec.lsqb" | Csv -> "codec.csv" in
  let p50 l = fi (Stats.median_int l) in
  let metrics =
    [
      ("codec.lsqb_ns_per_event", "ns/event", ns "codec.lsqb");
      ("codec.csv_ns_per_event", "ns/event", ns "codec.csv");
      ("codec.words_per_event", "words/event", wpe decoder);
      ("reorder.ns_per_event", "ns/event", ns "reorder");
      ("reorder.words_per_event", "words/event", wpe "reorder");
      ("reorder.reordered", "count", fi c.reordered);
      ("reorder.max_occupancy", "count", fi c.max_occupancy);
      ("reorder.residency_events_mean", "events", fi c.residency_sum /. n);
      ("reorder.dropped_late", "count", fi c.dropped_late);
      ("reorder.report_lag_events_p50", "events", p50 c.reorder_lags);
      ("session.ns_per_event", "ns/event", ns "session");
      ("session.self_ns_per_event", "ns/event", ns "session" -. ns "hub");
      ("session.forced", "count", fi c.forced);
      ("hub.ns_per_event", "ns/event", ns "hub");
      ("hub.words_per_event", "words/event", wpe "hub");
      ("engine.flat_ns_per_event", "ns/event", ns "engine.flat");
      ("engine.compiled_ns_per_event", "ns/event", ns "engine.compiled");
      ( "engine.steps_per_event",
        "steps/event",
        fi (Array.fold_left (fun a r -> a + Array.length r) 0 x.routes) /. n );
      ("provenance.record_ns_per_event", "ns/event", ns "provenance.record");
      ("provenance.minimize_ms", "ms", ms "provenance.minimize");
      ("checkpoint.save_ms", "ms", ms "checkpoint.save");
      ("checkpoint.bytes", "bytes", fi c.ckpt_bytes);
      ("checkpoint.saves", "count", fi c.saves);
      ("ooo.ns_per_event", "ns/event", ns "ooo");
      ("ooo.words_per_event", "words/event", wpe "ooo");
      ("ooo.rollbacks", "count", fi ooo.rollbacks);
      ("ooo.replayed_per_event", "events/event", fi ooo.replayed /. n);
      ( "ooo.commute_hit_share",
        "ratio",
        if ooo.late = 0 then 0. else fi ooo.commute_hits /. fi ooo.late );
      ("ooo.snapshots", "count", fi ooo.snapshots);
      ("ooo.max_journal", "count", fi ooo.max_journal);
      ("ooo.report_lag_events_p50", "events", p50 c.ooo_lags);
      ("setup.load_ms", "ms", ms "setup.load");
      ("setup.compile_ms", "ms", ms "setup.compile");
      ("setup.certificate_ms", "ms", ms "setup.certificate");
      ("setup.explorations", "count", fi c.explorations);
      ("ladder.top_ns_per_event", "ns/event", top_ns);
      ("server.overhead_ns_per_event", "ns/event", serve_ns -. top_ns);
      ( "trace.overhead_share",
        "ratio",
        med_of (fun r -> (r.top_traced_ns -. r.top_untraced_ns) /. r.top_untraced_ns) );
    ]
  in
  Printf.printf "ladder: %d timed rounds, %d serve runs, top-rung counters [%s]\n" (List.length rs)
    (List.length serves)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.top));
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %.6g %s\n" n v u) metrics;
  List.iter (fun p -> Printf.printf "consistency: %s\n" p) (List.rev !problems);
  let attempted = properties * (serve_runs + 1) in
  (!problems = [], attempted, !failed, metrics)
