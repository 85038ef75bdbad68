open Loseq_core
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace
module Robust = Loseq_analysis.Robust

type notice =
  | Violation of {
      index : int;
      label : string;
      violation : Diag.violation;
      settled : bool;
    }
  | Retracted of { index : int; label : string }
  | Settled of { index : int; label : string; verdict : Backend.verdict }

type stats = {
  applied : int;
  late : int;
  commute_hits : int;
  rollbacks : int;
  replayed : int;
  snapshots : int;
  settled_events : int;
  dropped_late : int;
  max_journal : int;
}

(* Per-checker speculation state around a rollback-capable backend.
   [decided_at] is meaningful only while the verdict is decided: the
   timestamp of the deciding step (or the missed deadline), i.e. the
   point the watermark must pass for the verdict to settle.  [dirty]
   tracks divergence from [cache] (below), not from the last recorded
   snapshot — snapshots can be dropped, the cache cannot. *)
type chk = {
  label : string;
  b : Backend.t;
  persist : unit -> Compiled.persisted;
  restore_st : Compiled.persisted -> unit;
  alpha : Name.Set.t;
  timed : bool;
  cert_bound : Robust.bound;
  cert_decided : bool;
  commuting : (Name.t * Name.t, unit) Hashtbl.t;
  mutable decided_at : int;
  mutable dirty : bool;
  mutable notified : Backend.verdict;
  mutable settled : bool;
}

(* Snapshot payload: one persisted blob and one decision point per
   checker.  Blobs are immutable once produced, so clean checkers share
   them across snapshots (the delta encoding). *)
type snap = { states : Compiled.persisted array; decided : int array }

(* Flight-recorder categories on the ooo track: the rollback-and-replay
   span (end argument: journalled events re-stepped), plus instants for
   certificate commute hits (arg: event time), speculative-violation
   retractions (arg: checker index) and snapshots (arg: journal
   depth). *)
type trc = {
  tr : Tr.t;
  tr_replay : Tr.cat;
  tr_commute : Tr.cat;
  tr_retract : Tr.cat;
  tr_snapshot : Tr.cat;
}

type t = {
  k : int;
  chks : chk array;
  suite_alpha : Name.Set.t;
  route : (Name.t, int list) Hashtbl.t;
  journal : snap Journal.t;
  snapshot_every : int;
  cert : Robust.certificate;
  trc : trc option;
  notice : notice -> unit;
  cache : Compiled.persisted array;
      (* freshest persisted blob per checker; [chk.dirty] says the live
         state has moved past it *)
  mutable max_seen : int;
  mutable epoch : int;
  mutable finalized : bool;
  mutable applied : int;
  mutable late : int;
  mutable commute_hits : int;
  mutable rollbacks : int;
  mutable replayed : int;
  mutable snapshots : int;
  mutable settled_events : int;
  mutable dropped_late : int;
  mutable max_journal : int;
}

let watermark t = t.max_seen - t.k
let max_seen t = t.max_seen
let journal_depth t = Journal.length t.journal
let certificate t = t.cert

let is_decided c =
  match c.b.Backend.verdict () with Backend.Running -> false | _ -> true

(* Step [e] into [c], tracking the decision point.  Decided monitors
   are sticky; skipping them keeps [dirty] honest. *)
let step_chk c (e : Trace.event) =
  if not (is_decided c) then begin
    c.dirty <- true;
    match c.b.Backend.step e with
    | Backend.Running -> ()
    | Backend.Satisfied -> c.decided_at <- e.Trace.time
    | Backend.Violated d -> c.decided_at <- d.Diag.time
  end

(* Fire every armed deadline [dl] with [dl + 1 <= upto], each at its
   exact expiry instant — the same schedule the buffered kernel's
   timeout wheel produces, which is what makes replayed diagnostics
   identical to the in-order ones. *)
let rec fire_chk c ~upto =
  match c.b.Backend.next_deadline () with
  | Some dl when dl + 1 <= upto ->
      c.dirty <- true;
      (match c.b.Backend.check_time ~now:(dl + 1) with
      | Backend.Violated d -> c.decided_at <- d.Diag.time
      | Backend.Running | Backend.Satisfied -> ());
      fire_chk c ~upto
  | _ -> ()

let take_snapshot t =
  Array.iteri
    (fun i c ->
      if c.dirty then begin
        t.cache.(i) <- c.persist ();
        c.dirty <- false
      end)
    t.chks;
  Journal.record t.journal ~epoch:t.epoch ~fired_upto:t.max_seen
    {
      states = Array.copy t.cache;
      decided = Array.map (fun c -> c.decided_at) t.chks;
    };
  t.snapshots <- t.snapshots + 1;
  match t.trc with
  | Some c -> Tr.emit c.tr c.tr_snapshot Tr.Instant (Journal.length t.journal)
  | None -> ()

let maybe_snapshot t =
  if Journal.since_snapshot t.journal >= t.snapshot_every then take_snapshot t

let note_journal_depth t =
  t.max_journal <- max t.max_journal (Journal.length t.journal)

(* Diff each checker's live verdict against the last one pushed to the
   notice callback.  Rollbacks surface here as retractions. *)
let notify_scan t =
  let wm = watermark t in
  Array.iteri
    (fun i c ->
      let v = c.b.Backend.verdict () in
      if v <> c.notified then begin
        (match c.notified with
        | Backend.Violated _ ->
            (match t.trc with
            | Some tc -> Tr.emit tc.tr tc.tr_retract Tr.Instant i
            | None -> ());
            t.notice (Retracted { index = i; label = c.label })
        | Backend.Running | Backend.Satisfied -> ());
        (match v with
        | Backend.Violated d ->
            t.notice
              (Violation
                 {
                   index = i;
                   label = c.label;
                   violation = d;
                   settled = t.finalized || c.decided_at < wm;
                 })
        | Backend.Running | Backend.Satisfied -> ());
        c.notified <- v
      end)
    t.chks

(* A decided verdict settles once the watermark strictly passes its
   decision point: every event that could still arrive is stamped at or
   after the watermark, hence after the decision. *)
let settle_scan t =
  let wm = watermark t in
  Array.iteri
    (fun i c ->
      if (not c.settled) && is_decided c && c.decided_at < wm then begin
        c.settled <- true;
        t.settled_events <- t.settled_events + 1;
        t.notice
          (Settled { index = i; label = c.label; verdict = c.b.Backend.verdict () })
      end)
    t.chks

let pair a b = if Name.compare a b <= 0 then (a, b) else (b, a)

let create ?metrics ?(trace = Tr.noop) ?(cert_budget = 20_000)
    ?(snapshot_every = 32) ?notice ~lateness entries =
  if lateness < 0 then invalid_arg "Loseq_ooo.Engine.create: negative lateness";
  if snapshot_every < 1 then
    invalid_arg "Loseq_ooo.Engine.create: snapshot_every < 1";
  (* Views of one flat suite engine: each persists and restores its own
     slots, which is all rollback needs. *)
  let backends = Backend.flat_views entries in
  let backends =
    match metrics with
    | Some m -> Array.map (Backend.instrument m) backends
    | None -> backends
  in
  let cert = Robust.certificate ~budget:cert_budget entries in
  let cert_entries = Array.of_list cert.Robust.entries in
  let chks =
    Array.mapi
      (fun i b ->
        let label, p = List.nth entries i in
        let ce = cert_entries.(i) in
        let commuting = Hashtbl.create 16 in
        List.iter
          (fun (a, b') -> Hashtbl.replace commuting (pair a b') ())
          ce.Robust.commuting;
        {
          label;
          b;
          persist = Option.get b.Backend.persist;
          restore_st = Option.get b.Backend.restore;
          alpha = b.Backend.alphabet;
          timed = (match p with Pattern.Timed _ -> true | Pattern.Antecedent _ -> false);
          cert_bound = ce.Robust.bound;
          cert_decided = ce.Robust.decided;
          commuting;
          decided_at = -1;
          dirty = false;
          notified = Backend.Running;
          settled = false;
        })
      backends
  in
  let route = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      Name.Set.iter
        (fun n ->
          let prev = Option.value (Hashtbl.find_opt route n) ~default:[] in
          Hashtbl.replace route n (prev @ [ i ]))
        c.alpha)
    chks;
  let suite_alpha =
    Array.fold_left (fun acc c -> Name.Set.union acc c.alpha) Name.Set.empty chks
  in
  let t =
    {
      k = lateness;
      chks;
      suite_alpha;
      route;
      journal = Journal.create ();
      snapshot_every;
      cert;
      trc =
        (if Tr.is_live trace then
           Some
             {
               tr = trace;
               tr_replay = Tr.intern trace ~track:"ooo" "rollback_replay";
               tr_commute = Tr.intern trace ~track:"ooo" "commute_hit";
               tr_retract = Tr.intern trace ~track:"ooo" "retraction";
               tr_snapshot = Tr.intern trace ~track:"ooo" "snapshot";
             }
         else None);
      notice = Option.value notice ~default:(fun _ -> ());
      cache = Array.map (fun c -> c.persist ()) chks;
      max_seen = -1;
      epoch = 0;
      finalized = false;
      applied = 0;
      late = 0;
      commute_hits = 0;
      rollbacks = 0;
      replayed = 0;
      snapshots = 0;
      settled_events = 0;
      dropped_late = 0;
      max_journal = 0;
    }
  in
  (* Base snapshot: position 0, nothing fired — qualifies as a restore
     point for any admissible insertion, so rollback never falls off
     the bottom of the snapshot stack. *)
  Journal.record t.journal ~epoch:0 ~fired_upto:(-1)
    {
      states = Array.copy t.cache;
      decided = Array.map (fun c -> c.decided_at) t.chks;
    };
  t.snapshots <- 1;
  (match metrics with
  | None -> ()
  | Some m ->
      let counter name help = Obs.counter m ~name ~help () in
      let gauge name help = Obs.gauge m ~name ~help () in
      let c_roll = counter "loseq_ooo_rollbacks_total" "Speculation rollbacks" in
      let c_repl =
        counter "loseq_ooo_replayed_events_total"
          "Journalled events re-stepped during rollbacks"
      in
      let c_hits =
        counter "loseq_ooo_commute_hits_total"
          "Late events committed in place by the certificate fast path"
      in
      let c_late = counter "loseq_ooo_late_events_total" "Admissible late events" in
      let c_settled = counter "loseq_ooo_settled_total" "Verdict settlements" in
      let c_dropped =
        counter "loseq_ooo_dropped_late_total"
          "Events beyond the lateness bound, dropped"
      in
      let c_snaps = counter "loseq_ooo_snapshots_total" "Snapshots recorded" in
      let g_depth = gauge "loseq_ooo_journal_depth" "Live rollback-journal events" in
      let g_wm = gauge "loseq_ooo_watermark" "Settlement watermark (max_seen - K)" in
      Obs.on_collect m (fun () ->
          Obs.set_counter c_roll t.rollbacks;
          Obs.set_counter c_repl t.replayed;
          Obs.set_counter c_hits t.commute_hits;
          Obs.set_counter c_late t.late;
          Obs.set_counter c_settled t.settled_events;
          Obs.set_counter c_dropped t.dropped_late;
          Obs.set_counter c_snaps t.snapshots;
          Obs.set g_depth (Journal.length t.journal);
          Obs.set g_wm (watermark t)));
  t

let route_step t e =
  match Hashtbl.find_opt t.route e.Trace.name with
  | Some idxs -> List.iter (fun i -> step_chk t.chks.(i) e) idxs
  | None -> ()

(* The certificate fast path: may late event [e] commit in place for
   checker [c], given the distinct names [suffix] of the journal events
   it would jump over?  See the soundness notes in the interface. *)
let commits_in_place t c (e : Trace.event) suffix =
  let n = e.Trace.name in
  c.settled
  || (not (Name.Set.mem n c.alpha))
  || (c.cert_decided
     && Robust.compare_bound c.cert_bound (Robust.Finite t.k) >= 0)
  || (not c.timed) && c.cert_decided
     && Name.Set.for_all
          (fun m ->
            (not (Name.Set.mem m c.alpha))
            || Name.equal m n
            || Hashtbl.mem c.commuting (pair n m))
          suffix

let offer_in_order t (e : Trace.event) =
  let journalled = Name.Set.mem e.Trace.name t.suite_alpha in
  if journalled then maybe_snapshot t;
  Array.iter (fun c -> fire_chk c ~upto:e.Trace.time) t.chks;
  route_step t e;
  if journalled then begin
    Journal.append t.journal e;
    note_journal_depth t
  end;
  if e.Trace.time > t.max_seen then begin
    t.max_seen <- e.Trace.time;
    t.epoch <- t.epoch + 1;
    Journal.trim t.journal ~watermark:(watermark t)
  end;
  t.applied <- t.applied + 1;
  `Applied

let offer_late t (e : Trace.event) =
  t.late <- t.late + 1;
  if not (Name.Set.mem e.Trace.name t.suite_alpha) then begin
    (* Foreign to every checker: nothing to step, nothing to replay
       (deadline firing is driven by timestamps already covered by
       max_seen, not by the event itself). *)
    t.commute_hits <- t.commute_hits + 1;
    (match t.trc with
    | Some c -> Tr.emit c.tr c.tr_commute Tr.Instant e.Trace.time
    | None -> ());
    `Applied
  end
  else begin
    let q = Journal.insertion_point t.journal ~time:e.Trace.time in
    let suffix = ref Name.Set.empty in
    for i = q to Journal.length t.journal - 1 do
      suffix := Name.Set.add (Journal.get t.journal i).Trace.name !suffix
    done;
    let affected = ref [] in
    Array.iteri
      (fun i c -> if not (commits_in_place t c e !suffix) then affected := i :: !affected)
      t.chks;
    match !affected with
    | [] ->
        route_step t e;
        Journal.insert t.journal ~at:q e;
        note_journal_depth t;
        t.commute_hits <- t.commute_hits + 1;
        (match t.trc with
        | Some c -> Tr.emit c.tr c.tr_commute Tr.Instant e.Trace.time
        | None -> ());
        `Commuted
    | affected -> (
        match Journal.restore_point t.journal ~at:q ~time:e.Trace.time with
        | None ->
            (* The base snapshot always qualifies — see [create]. *)
            assert false
        | Some r ->
            (* The whole repair is one span on the ooo track: restore,
               re-step, catch-up.  Opened before the restore so the
               nested snapshot instants stay time-ordered. *)
            (match t.trc with
            | Some c -> Tr.emit c.tr c.tr_replay Tr.Span_begin (List.length affected)
            | None -> ());
            let rpos = r.Journal.pos in
            List.iter
              (fun i ->
                let c = t.chks.(i) in
                c.restore_st r.Journal.snap.states.(i);
                c.decided_at <- r.Journal.snap.decided.(i);
                t.cache.(i) <- r.Journal.snap.states.(i);
                c.dirty <- false)
              affected;
            Journal.drop_after t.journal ~pos:rpos;
            (match Hashtbl.find_opt t.route e.Trace.name with
            | Some idxs ->
                List.iter
                  (fun i ->
                    if not (List.mem i affected) then step_chk t.chks.(i) e)
                  idxs
            | None -> ());
            Journal.insert t.journal ~at:q e;
            note_journal_depth t;
            let len = Journal.length t.journal in
            let count = len - rpos in
            for i = rpos to len - 1 do
              let ev = Journal.get t.journal i in
              List.iter
                (fun ci ->
                  let c = t.chks.(ci) in
                  fire_chk c ~upto:ev.Trace.time;
                  if Name.Set.mem ev.Trace.name c.alpha then step_chk c ev)
                affected
            done;
            (* Catch the replayed checkers back up to the present: the
               in-order path had fired their deadlines up to max_seen. *)
            List.iter (fun ci -> fire_chk t.chks.(ci) ~upto:t.max_seen) affected;
            t.rollbacks <- t.rollbacks + 1;
            t.replayed <- t.replayed + count;
            (match t.trc with
            | Some c -> Tr.emit c.tr c.tr_replay Tr.Span_end count
            | None -> ());
            `Replayed count)
  end

let offer t (e : Trace.event) =
  if t.finalized then invalid_arg "Loseq_ooo.Engine.offer: already finalized";
  let res =
    if e.Trace.time >= t.max_seen then offer_in_order t e
    else if e.Trace.time < t.max_seen - t.k then begin
      t.dropped_late <- t.dropped_late + 1;
      `Dropped_late
    end
    else offer_late t e
  in
  (match res with
  | `Dropped_late -> ()
  | `Applied | `Commuted | `Replayed _ ->
      notify_scan t;
      settle_scan t);
  res

let finalize ?final_time t =
  if not t.finalized then begin
    let ft = max 0 (max t.max_seen (Option.value final_time ~default:0)) in
    Array.iter (fun c -> fire_chk c ~upto:ft) t.chks;
    Array.iter
      (fun c ->
        if not (is_decided c) then begin
          c.dirty <- true;
          match c.b.Backend.finalize ~now:ft with
          | Backend.Running -> ()
          | Backend.Satisfied -> c.decided_at <- ft
          | Backend.Violated d -> c.decided_at <- d.Diag.time
        end
        else ignore (c.b.Backend.finalize ~now:ft))
      t.chks;
    t.finalized <- true;
    notify_scan t;
    Array.iteri
      (fun i c ->
        if not c.settled then begin
          c.settled <- true;
          t.settled_events <- t.settled_events + 1;
          t.notice
            (Settled
               { index = i; label = c.label; verdict = c.b.Backend.verdict () })
        end)
      t.chks
  end

let report t =
  Array.to_list (Array.map (fun c -> (c.label, c.b.Backend.verdict ())) t.chks)

let report_strings t =
  List.map
    (fun (_, v) -> Format.asprintf "%a" Backend.pp_verdict v)
    (report t)

let tri t =
  Array.map
    (fun c -> Backend.tri_of_verdict ~settled:c.settled (c.b.Backend.verdict ()))
    t.chks

let settled t = Array.map (fun c -> c.settled) t.chks

let stats t =
  {
    applied = t.applied;
    late = t.late;
    commute_hits = t.commute_hits;
    rollbacks = t.rollbacks;
    replayed = t.replayed;
    snapshots = t.snapshots;
    settled_events = t.settled_events;
    dropped_late = t.dropped_late;
    max_journal = t.max_journal;
  }
