(* The whole-suite flat-table engine.  One Bigarray int slab per
   checker carries every mutable word; all static tables are plain
   read-only int arrays built at compile time.  The step function is a
   literal mirror of [Compiled.step_id] (same recognizer codes, same
   branch structure) over slab slots instead of record fields — the
   agreement is property-tested in test_backend. *)

module Ba = Bigarray.Array1

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t

(* Control words per checker slab, at [checker_base + offset]. *)
let ctrl_slots = 13
let o_active = 0
let o_verdict = 1 (* 0 running / 1 satisfied / 2 violated *)
let o_index = 2
let o_started = 3 (* -1 = unarmed *)
let o_qdone = 4
let o_rounds = 5

(* Violation descriptor (meaningful when verdict = 2). *)
let o_vreason = 6
let o_vrec = 7 (* global recognizer of a range diagnostic, -1 = none *)
let o_vtime = 8
let o_vindex = 9
let o_va = 10 (* started / deadline *)
let o_vb = 11 (* deadline / at *)
let o_vc = 12 (* now *)

let v_running = 0
let v_satisfied = 1
let v_violated = 2

(* Recognizer states and categories: the [Compiled] codes. *)
let s_idle = 0
let s_waiting = 1
let s_started = 2
let s_counting = 3
let s_done = 4
let c_self = 0
let c_current = 1
let c_before = 2
let c_accept = 3

(* c_after = 4 is the fall-through branch *)

(* Recognizer outcomes. *)
let o_quiet = 0
let o_ok = 1
let o_nok = 2
let o_err = 3

(* Violation reason codes (o_vreason). *)
let r_before = 0
let r_after = 1
let r_overflow = 2
let r_underflow = 3
let r_reentered = 4
let r_missing = 5
let r_empty = 6
let r_trigger_early = 7
let r_deadline = 8
let r_late = 9

type t = {
  (* identity *)
  labels : string array;
  patterns : Pattern.t array;
  alphas : Name.Set.t array;
  (* interning *)
  names : Name.t array; (* gid -> name *)
  gids : (Name.t, int) Hashtbl.t;
  (* per checker *)
  ck_base : int array;
  ck_rec0 : int array; (* first global recognizer *)
  ck_nrecs : int array;
  ck_frag0 : int array; (* first global fragment *)
  ck_loc0 : int array; (* base into the local-name tables *)
  ck_nloc : int array;
  ck_q : int array; (* fragment count *)
  ck_repeated : bool array;
  ck_timed : bool array;
  ck_premise_last : int array;
  ck_deadline : int array;
  timed_cks : int array;
  (* per (checker, local name), flattened at ck_loc0 *)
  loc_owner : int array; (* fragment (checker-local), -1 = terminator-only *)
  loc_term : bool array;
  loc_gid : int array;
  loc_of_gid : int array; (* ck * n_names + gid -> local id, -1 = absent *)
  (* per fragment (global ids) *)
  frag_first : int array; (* global recognizer index *)
  frag_count : int array;
  (* per recognizer (global ids) *)
  rec_lo : int array;
  rec_hi : int array;
  rec_disj : bool array;
  rec_range : Pattern.range array; (* diagnostics *)
  rec_cat0 : int array; (* base into [cat]; row indexed by local id *)
  rec_sslot : int array; (* state slot *)
  rec_cslot : int array; (* counter slot *)
  cat : Bytes.t; (* category codes, one byte per (recognizer, local) *)
  (* name dispatch: CSR rows over gids *)
  sub_off : int array; (* n_names + 1 *)
  sub_ck : int array;
  sub_loc : int array;
  (* run state *)
  st : ba;
  mutable fr : int; (* scratch: failing reason code *)
  mutable fr_rec : int; (* scratch: failing recognizer, -1 = none *)
  mutable dl_gen : int;
  mutable notify : (int -> unit) option;
}

let category_code = function
  | Context.Self -> c_self
  | Context.Current -> c_current
  | Context.Before -> c_before
  | Context.Accept -> c_accept
  | Context.After -> 4
  | Context.Outside -> assert false

(* ---- compilation ------------------------------------------------------- *)

type pre = {
  p_label : string;
  p_pattern : Pattern.t;
  p_alpha : Name.Set.t;
  p_locals : Name.t array;
  p_owner : int array;
  p_term : bool array;
  p_contexts : Context.t list;
  p_frag_first : int array; (* checker-local recognizer index *)
  p_frag_count : int array;
  p_repeated : bool;
  p_timed : bool;
  p_premise_last : int;
  p_deadline : int;
}

let precompile (label, pattern) =
  Wellformed.check_exn pattern;
  let ordering = Pattern.body_ordering pattern in
  let contexts = List.concat (Context.of_pattern pattern) in
  let alpha = Pattern.alpha pattern in
  let locals = Array.of_list (Name.Set.elements alpha) in
  let n_loc = Array.length locals in
  let ids = Hashtbl.create 16 in
  Array.iteri (fun i nm -> Hashtbl.replace ids nm i) locals;
  let id nm = Hashtbl.find ids nm in
  let owner = Array.make n_loc (-1) in
  List.iteri
    (fun f (frag : Pattern.fragment) ->
      List.iter (fun (r : Pattern.range) -> owner.(id r.name) <- f) frag.ranges)
    ordering;
  let term = Array.make n_loc false in
  Name.Set.iter (fun nm -> term.(id nm) <- true) (Context.terminators pattern);
  let q = List.length ordering in
  let frag_first = Array.make q 0 in
  let frag_count = Array.make q 0 in
  let offset = ref 0 in
  List.iteri
    (fun f (frag : Pattern.fragment) ->
      frag_first.(f) <- !offset;
      frag_count.(f) <- List.length frag.ranges;
      offset := !offset + List.length frag.ranges)
    ordering;
  let repeated, timed, premise_last, deadline =
    match pattern with
    | Pattern.Antecedent a -> (a.repeated, false, -2, 0)
    | Pattern.Timed g -> (true, true, List.length g.premise - 1, g.deadline)
  in
  {
    p_label = label;
    p_pattern = pattern;
    p_alpha = alpha;
    p_locals = locals;
    p_owner = owner;
    p_term = term;
    p_contexts = contexts;
    p_frag_first = frag_first;
    p_frag_count = frag_count;
    p_repeated = repeated;
    p_timed = timed;
    p_premise_last = premise_last;
    p_deadline = deadline;
  }

let compile entries =
  let pres = Array.of_list (List.map precompile entries) in
  let n_ck = Array.length pres in
  (* Intern every name across the suite, first-appearance order. *)
  let gids = Hashtbl.create 64 in
  let names_rev = ref [] in
  let n_names = ref 0 in
  Array.iter
    (fun p ->
      Array.iter
        (fun nm ->
          if not (Hashtbl.mem gids nm) then begin
            Hashtbl.replace gids nm !n_names;
            names_rev := nm :: !names_rev;
            incr n_names
          end)
        p.p_locals)
    pres;
  let n_names = !n_names in
  let names = Array.of_list (List.rev !names_rev) in
  (* Global extents. *)
  let total_recs =
    Array.fold_left (fun a p -> a + List.length p.p_contexts) 0 pres
  in
  let total_frags = Array.fold_left (fun a p -> a + Array.length p.p_frag_first) 0 pres in
  let total_locs = Array.fold_left (fun a p -> a + Array.length p.p_locals) 0 pres in
  let cat_bytes =
    Array.fold_left
      (fun a p -> a + (List.length p.p_contexts * Array.length p.p_locals))
      0 pres
  in
  let ck_base = Array.make n_ck 0 in
  let ck_rec0 = Array.make n_ck 0 in
  let ck_nrecs = Array.make n_ck 0 in
  let ck_frag0 = Array.make n_ck 0 in
  let ck_loc0 = Array.make n_ck 0 in
  let ck_nloc = Array.make n_ck 0 in
  let ck_q = Array.make n_ck 0 in
  let ck_repeated = Array.make n_ck false in
  let ck_timed = Array.make n_ck false in
  let ck_premise_last = Array.make n_ck (-2) in
  let ck_deadline = Array.make n_ck 0 in
  let loc_owner = Array.make total_locs (-1) in
  let loc_term = Array.make total_locs false in
  let loc_gid = Array.make total_locs 0 in
  let loc_of_gid = Array.make (max 1 (n_ck * n_names)) (-1) in
  let frag_first = Array.make total_frags 0 in
  let frag_count = Array.make total_frags 0 in
  let rec_lo = Array.make total_recs 1 in
  let rec_hi = Array.make total_recs 1 in
  let rec_disj = Array.make total_recs false in
  let rec_range =
    Array.make total_recs (Pattern.range ~lo:1 ~hi:1 (Name.v "_"))
  in
  let rec_cat0 = Array.make total_recs 0 in
  let rec_sslot = Array.make total_recs 0 in
  let rec_cslot = Array.make total_recs 0 in
  let cat = Bytes.create (max 1 cat_bytes) in
  let slot = ref 0 in
  let next_rec = ref 0 in
  let next_frag = ref 0 in
  let next_loc = ref 0 in
  let next_cat = ref 0 in
  Array.iteri
    (fun ck p ->
      let n_loc = Array.length p.p_locals in
      let n_recs = List.length p.p_contexts in
      ck_base.(ck) <- !slot;
      ck_rec0.(ck) <- !next_rec;
      ck_nrecs.(ck) <- n_recs;
      ck_frag0.(ck) <- !next_frag;
      ck_loc0.(ck) <- !next_loc;
      ck_nloc.(ck) <- n_loc;
      ck_q.(ck) <- Array.length p.p_frag_first;
      ck_repeated.(ck) <- p.p_repeated;
      ck_timed.(ck) <- p.p_timed;
      ck_premise_last.(ck) <- p.p_premise_last;
      ck_deadline.(ck) <- p.p_deadline;
      Array.iteri
        (fun l nm ->
          let gid = Hashtbl.find gids nm in
          loc_owner.(!next_loc + l) <- p.p_owner.(l);
          loc_term.(!next_loc + l) <- p.p_term.(l);
          loc_gid.(!next_loc + l) <- gid;
          loc_of_gid.((ck * n_names) + gid) <- l)
        p.p_locals;
      Array.iteri
        (fun f first ->
          frag_first.(!next_frag + f) <- ck_rec0.(ck) + first;
          frag_count.(!next_frag + f) <- p.p_frag_count.(f))
        p.p_frag_first;
      List.iteri
        (fun j ctx ->
          let r = !next_rec + j in
          rec_lo.(r) <- ctx.Context.range.Pattern.lo;
          rec_hi.(r) <- ctx.Context.range.Pattern.hi;
          rec_disj.(r) <- ctx.Context.connective = Pattern.Any;
          rec_range.(r) <- ctx.Context.range;
          rec_cat0.(r) <- !next_cat + (j * n_loc);
          rec_sslot.(r) <- !slot + ctrl_slots + j;
          rec_cslot.(r) <- !slot + ctrl_slots + n_recs + j;
          Array.iteri
            (fun l nm ->
              Bytes.set cat
                (rec_cat0.(r) + l)
                (Char.chr (category_code (Context.classify ctx nm))))
            p.p_locals)
        p.p_contexts;
      slot := !slot + ctrl_slots + (2 * n_recs);
      next_rec := !next_rec + n_recs;
      next_frag := !next_frag + Array.length p.p_frag_first;
      next_loc := !next_loc + n_loc;
      next_cat := !next_cat + (n_recs * n_loc))
    pres;
  (* Dispatch CSR: one row per gid, (checker, local) pairs in suite
     order. *)
  let counts = Array.make (n_names + 1) 0 in
  Array.iter (fun gid -> counts.(gid + 1) <- counts.(gid + 1) + 1) loc_gid;
  let sub_off = Array.make (n_names + 1) 0 in
  for g = 1 to n_names do
    sub_off.(g) <- sub_off.(g - 1) + counts.(g)
  done;
  let sub_ck = Array.make (max 1 total_locs) 0 in
  let sub_loc = Array.make (max 1 total_locs) 0 in
  let cursor = Array.copy sub_off in
  Array.iteri
    (fun ck _ ->
      for l = 0 to ck_nloc.(ck) - 1 do
        let gid = loc_gid.(ck_loc0.(ck) + l) in
        let k = cursor.(gid) in
        sub_ck.(k) <- ck;
        sub_loc.(k) <- l;
        cursor.(gid) <- k + 1
      done)
    pres;
  let st = Ba.create Bigarray.int Bigarray.c_layout (max 1 !slot) in
  Ba.fill st 0;
  let t =
    {
      labels = Array.map (fun p -> p.p_label) pres;
      patterns = Array.map (fun p -> p.p_pattern) pres;
      alphas = Array.map (fun p -> p.p_alpha) pres;
      names;
      gids;
      ck_base;
      ck_rec0;
      ck_nrecs;
      ck_frag0;
      ck_loc0;
      ck_nloc;
      ck_q;
      ck_repeated;
      ck_timed;
      ck_premise_last;
      ck_deadline;
      timed_cks =
        Array.of_list
          (List.filter
             (fun ck -> ck_timed.(ck))
             (List.init n_ck (fun i -> i)));
      loc_owner;
      loc_term;
      loc_gid;
      loc_of_gid;
      frag_first;
      frag_count;
      rec_lo;
      rec_hi;
      rec_disj;
      rec_range;
      rec_cat0;
      rec_sslot;
      rec_cslot;
      cat;
      sub_off;
      sub_ck;
      sub_loc;
      st;
      fr = r_empty;
      fr_rec = -1;
      dl_gen = 0;
      notify = None;
    }
  in
  t

(* ---- initial configuration -------------------------------------------- *)

let init_checker t ck =
  let base = t.ck_base.(ck) in
  let n = t.ck_nrecs.(ck) in
  for i = 0 to ctrl_slots + (2 * n) - 1 do
    Ba.set t.st (base + i) 0
  done;
  Ba.set t.st (base + o_started) (-1);
  Ba.set t.st (base + o_vrec) (-1);
  let g0 = t.ck_frag0.(ck) in
  for r = t.frag_first.(g0) to t.frag_first.(g0) + t.frag_count.(g0) - 1 do
    Ba.set t.st t.rec_sslot.(r) s_waiting
  done

let reset_checker t ck =
  init_checker t ck;
  t.dl_gen <- t.dl_gen + 1

let reset t =
  for ck = 0 to Array.length t.labels - 1 do
    init_checker t ck
  done;
  t.dl_gen <- t.dl_gen + 1

let compile entries =
  let t = compile entries in
  for ck = 0 to Array.length t.labels - 1 do
    init_checker t ck
  done;
  t

(* ---- identity ---------------------------------------------------------- *)

let size t = Array.length t.labels
let label t ck = t.labels.(ck)
let pattern t ck = t.patterns.(ck)
let alphabet t ck = t.alphas.(ck)
let names t = t.names
let gid_of_name t nm = Hashtbl.find_opt t.gids nm

let local_of_name t ck nm =
  (* [find], not [find_opt]: this runs once per view step, and the
     option would be an allocation on every one *)
  match Hashtbl.find t.gids nm with
  | gid -> t.loc_of_gid.((ck * Array.length t.names) + gid)
  | exception Not_found -> -1

let timed_checkers t = t.timed_cks
let deadline_generation t = t.dl_gen
let set_notify t f = t.notify <- f

(* ---- verdict accessors ------------------------------------------------- *)

let verdict_code t ck = Ba.get t.st (t.ck_base.(ck) + o_verdict)
let active_fragment t ck = Ba.get t.st (t.ck_base.(ck) + o_active)
let index t ck = Ba.get t.st (t.ck_base.(ck) + o_index)
let rounds_completed t ck = Ba.get t.st (t.ck_base.(ck) + o_rounds)

let steps_total t =
  let sum = ref 0 in
  Array.iter (fun base -> sum := !sum + Ba.get t.st (base + o_index)) t.ck_base;
  !sum

let reason_of t ck : Diag.reason =
  let base = t.ck_base.(ck) in
  let range () = t.rec_range.(Ba.get t.st (base + o_vrec)) in
  let code = Ba.get t.st (base + o_vreason) in
  if code = r_before then Diag.Before_name
  else if code = r_after then Diag.After_name
  else if code = r_overflow then Diag.Overflow (range ())
  else if code = r_underflow then Diag.Underflow (range ())
  else if code = r_reentered then Diag.Reentered (range ())
  else if code = r_missing then Diag.Missing (range ())
  else if code = r_empty then Diag.Empty_fragment
  else if code = r_trigger_early then Diag.Trigger_early
  else if code = r_deadline then
    Diag.Deadline_miss
      {
        started = Ba.get t.st (base + o_va);
        deadline = Ba.get t.st (base + o_vb);
        now = Ba.get t.st (base + o_vc);
      }
  else
    Diag.Late_conclusion
      { deadline = Ba.get t.st (base + o_va); at = Ba.get t.st (base + o_vb) }

let verdict t ck : Compiled.verdict =
  let base = t.ck_base.(ck) in
  let v = Ba.get t.st (base + o_verdict) in
  if v = v_running then Compiled.Running
  else if v = v_satisfied then Compiled.Satisfied
  else
    Compiled.Violated
      {
        reason = reason_of t ck;
        time = Ba.get t.st (base + o_vtime);
        index = Ba.get t.st (base + o_vindex);
      }

(* ---- the step machine -------------------------------------------------- *)

let violate t ck ~reason ~vrec ~time ~idx ~a ~b ~c =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  Ba.unsafe_set st (base + o_verdict) v_violated;
  Ba.unsafe_set st (base + o_vreason) reason;
  Ba.unsafe_set st (base + o_vrec) vrec;
  Ba.unsafe_set st (base + o_vtime) time;
  Ba.unsafe_set st (base + o_vindex) idx;
  Ba.unsafe_set st (base + o_va) a;
  Ba.unsafe_set st (base + o_vb) b;
  Ba.unsafe_set st (base + o_vc) c;
  if Array.unsafe_get t.ck_timed ck then t.dl_gen <- t.dl_gen + 1;
  match t.notify with Some f -> f ck | None -> ()

(* One Fig. 5 recognizer step; on [o_err] the reason is in
   [t.fr]/[t.fr_rec] (single-threaded monitors, allocation-free). *)
let rec_step t r c =
  let st = t.st in
  let ss = Array.unsafe_get t.rec_sslot r in
  let s = Ba.unsafe_get st ss in
  let fail code =
    t.fr <- code;
    t.fr_rec <- r;
    o_err
  in
  if s = s_waiting || s = s_started then
    if c = c_self then begin
      Ba.unsafe_set st ss s_counting;
      Ba.unsafe_set st (Array.unsafe_get t.rec_cslot r) 1;
      o_quiet
    end
    else if c = c_current then begin
      if s = s_waiting then Ba.unsafe_set st ss s_started;
      o_quiet
    end
    else if c = c_accept then
      if Array.unsafe_get t.rec_disj r then begin
        Ba.unsafe_set st ss s_idle;
        o_nok
      end
      else fail r_missing
    else if c = c_before then fail r_before
    else fail r_after
  else if s = s_counting then begin
    let cs = Array.unsafe_get t.rec_cslot r in
    let n = Ba.unsafe_get st cs in
    if c = c_self then
      if n >= Array.unsafe_get t.rec_hi r then fail r_overflow
      else begin
        Ba.unsafe_set st cs (n + 1);
        o_quiet
      end
    else if c = c_current then
      if n >= Array.unsafe_get t.rec_lo r then begin
        Ba.unsafe_set st ss s_done;
        o_quiet
      end
      else fail r_underflow
    else if c = c_accept then
      if n >= Array.unsafe_get t.rec_lo r then begin
        Ba.unsafe_set st ss s_idle;
        o_ok
      end
      else fail r_underflow
    else if c = c_before then fail r_before
    else fail r_after
  end
  else if s = s_done then
    if c = c_self then fail r_reentered
    else if c = c_current then o_quiet
    else if c = c_accept then begin
      Ba.unsafe_set st ss s_idle;
      o_ok
    end
    else if c = c_before then fail r_before
    else fail r_after
  else o_quiet (* idle: not stepped in practice *)

(* Would the active fragment complete on an Accept right now? *)
let min_complete t ck =
  let st = t.st in
  let f = Ba.unsafe_get st (Array.unsafe_get t.ck_base ck + o_active) in
  if f < 0 then false
  else begin
    let gf = Array.unsafe_get t.ck_frag0 ck + f in
    let first = Array.unsafe_get t.frag_first gf in
    let oks = ref 0 in
    let viable = ref true in
    for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
      let s = Ba.unsafe_get st (Array.unsafe_get t.rec_sslot r) in
      if s = s_counting then
        if
          Ba.unsafe_get st (Array.unsafe_get t.rec_cslot r)
          >= Array.unsafe_get t.rec_lo r
        then incr oks
        else viable := false
      else if s = s_done then incr oks
      else if not (Array.unsafe_get t.rec_disj r) then viable := false
    done;
    !viable && !oks > 0
  end

(* Deliver Accept to the active fragment; true on success. *)
let try_complete t ck ~time =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  let f = Ba.unsafe_get st (base + o_active) in
  let gf = Array.unsafe_get t.ck_frag0 ck + f in
  let first = Array.unsafe_get t.frag_first gf in
  let oks = ref 0 in
  let failed = ref false in
  t.fr <- r_empty;
  t.fr_rec <- -1;
  for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
    if not !failed then begin
      let o = rec_step t r c_accept in
      if o = o_ok then incr oks else if o = o_err then failed := true
    end
  done;
  let idx = Ba.unsafe_get st (base + o_index) - 1 in
  if !failed then begin
    violate t ck ~reason:t.fr ~vrec:t.fr_rec ~time ~idx ~a:0 ~b:0 ~c:0;
    false
  end
  else if !oks = 0 then begin
    violate t ck ~reason:r_empty ~vrec:(-1) ~time ~idx ~a:0 ~b:0 ~c:0;
    false
  end
  else true

let start_fragment_with t ck f loc =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  Ba.unsafe_set st (base + o_active) f;
  let gf = Array.unsafe_get t.ck_frag0 ck + f in
  let first = Array.unsafe_get t.frag_first gf in
  for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
    let c =
      Char.code (Bytes.unsafe_get t.cat (Array.unsafe_get t.rec_cat0 r + loc))
    in
    if c = c_self then begin
      Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_counting;
      Ba.unsafe_set st (Array.unsafe_get t.rec_cslot r) 1
    end
    else Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_started
  done

let refresh_timed t ck ~time =
  if Array.unsafe_get t.ck_timed ck then begin
    let st = t.st in
    let base = Array.unsafe_get t.ck_base ck in
    let active = Ba.unsafe_get st (base + o_active) in
    if active = Array.unsafe_get t.ck_premise_last ck && min_complete t ck
    then begin
      Ba.unsafe_set st (base + o_started) time;
      t.dl_gen <- t.dl_gen + 1
    end
    else if
      active = Array.unsafe_get t.ck_q ck - 1
      && Ba.unsafe_get st (base + o_qdone) = 0
      && min_complete t ck
    then begin
      Ba.unsafe_set st (base + o_qdone) 1;
      Ba.unsafe_set st (base + o_rounds) (Ba.unsafe_get st (base + o_rounds) + 1);
      t.dl_gen <- t.dl_gen + 1
    end
  end

(* The internal dispatch path: [ck]/[loc] are trusted (they come from
   the engine's own tables).  The deadline slots are only read once the
   checker is known to be timed and armed, so untimed checkers pay
   nothing for them on the hot path. *)
let step_trusted t ck loc ~time =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  if Ba.unsafe_get st (base + o_verdict) = v_running then begin
    let idx = Ba.unsafe_get st (base + o_index) + 1 in
    Ba.unsafe_set st (base + o_index) idx;
    let timed = Array.unsafe_get t.ck_timed ck in
    let started = if timed then Ba.unsafe_get st (base + o_started) else -1 in
    let armed = timed && started >= 0 in
    let dl =
      if armed then started + Array.unsafe_get t.ck_deadline ck else max_int
    in
    let qdone = armed && Ba.unsafe_get st (base + o_qdone) = 1 in
    let f = Array.unsafe_get t.loc_owner (Array.unsafe_get t.ck_loc0 ck + loc) in
    if armed && (not qdone) && time > dl then
      violate t ck ~reason:r_deadline ~vrec:(-1) ~time ~idx:(idx - 1)
        ~a:started ~b:dl ~c:time
    else if
      armed && qdone && time > dl && f > Array.unsafe_get t.ck_premise_last ck
    then
      violate t ck ~reason:r_late ~vrec:(-1) ~time ~idx:(idx - 1) ~a:dl ~b:time
        ~c:0
    else begin
      let active = Ba.unsafe_get st (base + o_active) in
      let last = Array.unsafe_get t.ck_q ck - 1 in
      if f = active then begin
        (* Step every recognizer of the active fragment. *)
        let gf = Array.unsafe_get t.ck_frag0 ck + f in
        let first = Array.unsafe_get t.frag_first gf in
        t.fr <- r_empty;
        t.fr_rec <- -1;
        let failed = ref false in
        for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
          if not !failed then begin
            let c =
              Char.code
                (Bytes.unsafe_get t.cat (Array.unsafe_get t.rec_cat0 r + loc))
            in
            if rec_step t r c = o_err then failed := true
          end
        done;
        if !failed then
          violate t ck ~reason:t.fr ~vrec:t.fr_rec ~time ~idx:(idx - 1) ~a:0
            ~b:0 ~c:0
        else refresh_timed t ck ~time
      end
      else if
        active = last && Array.unsafe_get t.loc_term (t.ck_loc0.(ck) + loc)
      then begin
        if try_complete t ck ~time then
          if not timed then begin
            Ba.unsafe_set st (base + o_rounds)
              (Ba.unsafe_get st (base + o_rounds) + 1);
            if Array.unsafe_get t.ck_repeated ck then begin
              (* fresh round, bare start *)
              let g0 = Array.unsafe_get t.ck_frag0 ck in
              let first = Array.unsafe_get t.frag_first g0 in
              for r = first to first + Array.unsafe_get t.frag_count g0 - 1 do
                Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_waiting
              done;
              Ba.unsafe_set st (base + o_active) 0
            end
            else begin
              Ba.unsafe_set st (base + o_verdict) v_satisfied;
              match t.notify with Some g -> g ck | None -> ()
            end
          end
          else begin
            (* timed: the terminator opens the next round *)
            start_fragment_with t ck 0 loc;
            Ba.unsafe_set st (base + o_started) (-1);
            Ba.unsafe_set st (base + o_qdone) 0;
            t.dl_gen <- t.dl_gen + 1;
            refresh_timed t ck ~time
          end
      end
      else if f = active + 1 then begin
        if try_complete t ck ~time then begin
          start_fragment_with t ck f loc;
          refresh_timed t ck ~time
        end
      end
      else if f >= 0 && f <= active then
        violate t ck ~reason:r_before ~vrec:(-1) ~time ~idx:(idx - 1) ~a:0 ~b:0
          ~c:0
      else if f >= 0 then
        violate t ck ~reason:r_after ~vrec:(-1) ~time ~idx:(idx - 1) ~a:0 ~b:0
          ~c:0
      else
        violate t ck ~reason:r_trigger_early ~vrec:(-1) ~time ~idx:(idx - 1)
          ~a:0 ~b:0 ~c:0
    end
  end

let step_local t ck loc ~time =
  if ck < 0 || ck >= Array.length t.labels then
    invalid_arg "Flat.step_local: checker out of range";
  if loc < 0 || loc >= t.ck_nloc.(ck) then
    invalid_arg "Flat.step_local: local name out of range";
  step_trusted t ck loc ~time

let step_name t ~gid ~time =
  let lo = Array.unsafe_get t.sub_off gid in
  let hi = Array.unsafe_get t.sub_off (gid + 1) in
  for k = lo to hi - 1 do
    step_trusted t (Array.unsafe_get t.sub_ck k) (Array.unsafe_get t.sub_loc k)
      ~time
  done

let step_event t (e : Trace.event) =
  match Hashtbl.find_opt t.gids e.name with
  | Some gid -> step_name t ~gid ~time:e.time
  | None -> ()

let step_checker t ck (e : Trace.event) =
  let loc = local_of_name t ck e.name in
  if loc >= 0 then step_trusted t ck loc ~time:e.time

(* ---- time -------------------------------------------------------------- *)

let check_time_checker t ck ~now =
  let st = t.st in
  let base = t.ck_base.(ck) in
  if
    Ba.get st (base + o_verdict) = v_running
    && t.ck_timed.(ck)
    && Ba.get st (base + o_started) >= 0
    && Ba.get st (base + o_qdone) = 0
  then begin
    let started = Ba.get st (base + o_started) in
    let dl = started + t.ck_deadline.(ck) in
    if now > dl then begin
      Ba.set st (base + o_verdict) v_violated;
      Ba.set st (base + o_vreason) r_deadline;
      Ba.set st (base + o_vrec) (-1);
      Ba.set st (base + o_vtime) dl;
      Ba.set st (base + o_vindex) (-1);
      Ba.set st (base + o_va) started;
      Ba.set st (base + o_vb) dl;
      Ba.set st (base + o_vc) now;
      t.dl_gen <- t.dl_gen + 1;
      match t.notify with Some f -> f ck | None -> ()
    end
  end

let check_time t ~now =
  Array.iter (fun ck -> check_time_checker t ck ~now) t.timed_cks

let finalize t ~now = check_time t ~now

let next_deadline_checker t ck =
  let st = t.st in
  let base = t.ck_base.(ck) in
  if
    Ba.get st (base + o_verdict) = v_running
    && t.ck_timed.(ck)
    && Ba.get st (base + o_started) >= 0
    && Ba.get st (base + o_qdone) = 0
  then Some (Ba.get st (base + o_started) + t.ck_deadline.(ck))
  else None

let next_deadline t =
  Array.fold_left
    (fun acc ck ->
      match next_deadline_checker t ck with
      | None -> acc
      | Some d -> (
          match acc with Some m when m <= d -> acc | _ -> Some d))
    None t.timed_cks

(* ---- persistence ------------------------------------------------------- *)

let persist_checker t ck : Compiled.persisted =
  let base = t.ck_base.(ck) in
  let n = t.ck_nrecs.(ck) in
  {
    p_recs =
      Array.init n (fun j ->
          let s = Ba.get t.st (base + ctrl_slots + j) in
          if s = s_idle then Compiled.Idle
          else if s = s_waiting then Compiled.Waiting
          else if s = s_started then Compiled.Started
          else if s = s_counting then
            Compiled.Counting (Ba.get t.st (base + ctrl_slots + n + j))
          else Compiled.Done);
    p_active = Ba.get t.st (base + o_active);
    p_index = Ba.get t.st (base + o_index);
    p_started = Ba.get t.st (base + o_started);
    p_q_done = Ba.get t.st (base + o_qdone) = 1;
    p_rounds = Ba.get t.st (base + o_rounds);
    p_verdict = verdict t ck;
  }

let rec_of_range t ck (range : Pattern.range) =
  let r0 = t.ck_rec0.(ck) in
  let rec find j =
    if j >= t.ck_nrecs.(ck) then
      invalid_arg
        "Flat.restore_checker: diagnostic range is not in the pattern"
    else if t.rec_range.(r0 + j) = range then r0 + j
    else find (j + 1)
  in
  find 0

let restore_checker t ck (p : Compiled.persisted) =
  let base = t.ck_base.(ck) in
  let n = t.ck_nrecs.(ck) in
  if Array.length p.p_recs <> n then
    invalid_arg "Flat.restore_checker: recognizer count mismatch";
  Array.iteri
    (fun j s ->
      let code, counter =
        match s with
        | Compiled.Idle -> (s_idle, 0)
        | Compiled.Waiting -> (s_waiting, 0)
        | Compiled.Started -> (s_started, 0)
        | Compiled.Counting c -> (s_counting, c)
        | Compiled.Done -> (s_done, 0)
      in
      Ba.set t.st (base + ctrl_slots + j) code;
      Ba.set t.st (base + ctrl_slots + n + j) counter)
    p.p_recs;
  Ba.set t.st (base + o_active) p.p_active;
  Ba.set t.st (base + o_index) p.p_index;
  Ba.set t.st (base + o_started) p.p_started;
  Ba.set t.st (base + o_qdone) (if p.p_q_done then 1 else 0);
  Ba.set t.st (base + o_rounds) p.p_rounds;
  (match p.p_verdict with
  | Compiled.Running ->
      Ba.set t.st (base + o_verdict) v_running;
      Ba.set t.st (base + o_vrec) (-1)
  | Compiled.Satisfied ->
      Ba.set t.st (base + o_verdict) v_satisfied;
      Ba.set t.st (base + o_vrec) (-1)
  | Compiled.Violated { reason; time; index } ->
      let code, vrec, a, b, c =
        match reason with
        | Diag.Before_name -> (r_before, -1, 0, 0, 0)
        | Diag.After_name -> (r_after, -1, 0, 0, 0)
        | Diag.Overflow range -> (r_overflow, rec_of_range t ck range, 0, 0, 0)
        | Diag.Underflow range ->
            (r_underflow, rec_of_range t ck range, 0, 0, 0)
        | Diag.Reentered range ->
            (r_reentered, rec_of_range t ck range, 0, 0, 0)
        | Diag.Missing range -> (r_missing, rec_of_range t ck range, 0, 0, 0)
        | Diag.Empty_fragment -> (r_empty, -1, 0, 0, 0)
        | Diag.Trigger_early -> (r_trigger_early, -1, 0, 0, 0)
        | Diag.Deadline_miss { started; deadline; now } ->
            (r_deadline, -1, started, deadline, now)
        | Diag.Late_conclusion { deadline; at } -> (r_late, -1, deadline, at, 0)
        | Diag.Foreign _ | Diag.Formula_falsified ->
            invalid_arg
              "Flat.restore_checker: reason is not a flat-engine diagnostic"
      in
      Ba.set t.st (base + o_verdict) v_violated;
      Ba.set t.st (base + o_vreason) code;
      Ba.set t.st (base + o_vrec) vrec;
      Ba.set t.st (base + o_vtime) time;
      Ba.set t.st (base + o_vindex) index;
      Ba.set t.st (base + o_va) a;
      Ba.set t.st (base + o_vb) b;
      Ba.set t.st (base + o_vc) c);
  t.dl_gen <- t.dl_gen + 1

(* ---- blob -------------------------------------------------------------- *)

let blob_version = 1
let magic = "LSQF"

let used_slots t =
  match Array.length t.ck_base with
  | 0 -> 0
  | n -> t.ck_base.(n - 1) + ctrl_slots + (2 * t.ck_nrecs.(n - 1))

(* Slots are zigzag varints (LEB128): a fresh 64-checker suite is
   mostly zeros and small codes, so almost every slot is one byte —
   the whole-suite blob stays an order of magnitude below 64
   per-checker JSON states. *)
let put_varint buf v =
  let u = (v lsl 1) lxor (v asr 62) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

(* [Ok (value, next offset)] or [Error ()] on truncation/overlength. *)
let get_varint s off =
  let len = String.length s in
  let rec go u shift off =
    if off >= len || shift > 63 then Error ()
    else
      let b = Char.code s.[off] in
      let u = u lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok ((u lsr 1) lxor (-(u land 1)), off + 1)
      else go u (shift + 7) (off + 1)
  in
  go 0 0 off

let save_blob t =
  let n = used_slots t in
  let buf = Buffer.create (16 + (2 * n)) in
  Buffer.add_string buf magic;
  let b4 = Bytes.create 4 in
  Bytes.set_int32_le b4 0 (Int32.of_int blob_version);
  Buffer.add_bytes buf b4;
  put_varint buf n;
  for i = 0 to n - 1 do
    put_varint buf (Ba.get t.st i)
  done;
  Buffer.contents buf

let load_blob t blob =
  let len = String.length blob in
  if len < 8 || String.sub blob 0 4 <> magic then
    Error "not a flat-engine state blob (bad magic)"
  else
    let version = Int32.to_int (String.get_int32_le blob 4) in
    if version <> blob_version then
      Error
        (Printf.sprintf "unsupported flat blob version %d (expected %d)"
           version blob_version)
    else
      let truncated =
        Error (Printf.sprintf "flat blob is truncated (%d bytes)" len)
      in
      match get_varint blob 8 with
      | Error () -> truncated
      | Ok (n, off0) ->
          let expected = used_slots t in
          if n <> expected then
            Error
              (Printf.sprintf
                 "flat blob carries %d state slots, this engine has %d \
                  (different suite?)"
                 n expected)
          else begin
            (* Decode into a scratch first: a truncated blob must not
               leave the engine half-overwritten. *)
            let slots = Array.make n 0 in
            let rec fill i off =
              if i = n then if off = len then Ok () else truncated
              else
                match get_varint blob off with
                | Error () -> truncated
                | Ok (v, off) ->
                    slots.(i) <- v;
                    fill (i + 1) off
            in
            match fill 0 off0 with
            | Error _ as e -> e
            | Ok () ->
                for i = 0 to n - 1 do
                  Ba.set t.st i slots.(i)
                done;
                t.dl_gen <- t.dl_gen + 1;
                Ok ()
          end

(* ---- layout ------------------------------------------------------------ *)

type layout = {
  total_slots : int;
  checker_base : int array;
  state_slot : int array;
  counter_slot : int array;
}

let layout t =
  {
    total_slots = used_slots t;
    checker_base = Array.copy t.ck_base;
    state_slot = Array.copy t.rec_sslot;
    counter_slot = Array.copy t.rec_cslot;
  }

let checker_slots t ck =
  if ck < 0 || ck >= Array.length t.labels then
    invalid_arg "Flat.checker_slots: checker out of range";
  ctrl_slots + (2 * t.ck_nrecs.(ck))

let slice t cks =
  let n = size t in
  let seen = Array.make n false in
  List.iter
    (fun ck ->
      if ck < 0 || ck >= n then invalid_arg "Flat.slice: checker out of range";
      if seen.(ck) then invalid_arg "Flat.slice: duplicate checker";
      seen.(ck) <- true)
    cks;
  let sliced = compile (List.map (fun ck -> (label t ck, pattern t ck)) cks) in
  List.iteri (fun i ck -> restore_checker sliced i (persist_checker t ck)) cks;
  sliced
