open Loseq_core
open Loseq_sim

(* Subscribers live in growable arrays kept in subscription order, so
   [emit] walks them front to back without reversing (or allocating)
   anything per event. *)
type subscribers = {
  mutable fns : (Trace.event -> unit) array;
  mutable len : int;
}

let subs_empty () = { fns = [||]; len = 0 }

let subs_add s f =
  let cap = Array.length s.fns in
  if s.len = cap then begin
    let fns = Array.make (max 4 (2 * cap)) f in
    Array.blit s.fns 0 fns 0 s.len;
    s.fns <- fns
  end;
  s.fns.(s.len) <- f;
  s.len <- s.len + 1

let subs_iter s event =
  for i = 0 to s.len - 1 do
    s.fns.(i) event
  done

type t = {
  kernel : Kernel.t;
  record : bool;
  mutable events_rev : Trace.event list;
  all : subscribers;
  (* per-name routing: names interned once per tap into dense ids *)
  ids : (Name.t, int) Hashtbl.t;
  mutable by_name : subscribers array;  (* indexed by interned id *)
  mutable count : int;
}

let create ?(record = true) kernel =
  {
    kernel;
    record;
    events_rev = [];
    all = subs_empty ();
    ids = Hashtbl.create 16;
    by_name = [||];
    count = 0;
  }

let kernel t = t.kernel
let now_ps t = Time.to_ps (Kernel.now t.kernel)

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.ids in
      Hashtbl.replace t.ids name id;
      if id >= Array.length t.by_name then begin
        let grown =
          Array.init
            (max 8 (2 * Array.length t.by_name))
            (fun i ->
              if i < Array.length t.by_name then t.by_name.(i)
              else subs_empty ())
        in
        t.by_name <- grown
      end;
      id

let emit_name t name =
  let event = { Trace.name; time = now_ps t } in
  t.count <- t.count + 1;
  if t.record then t.events_rev <- event :: t.events_rev;
  subs_iter t.all event;
  match Hashtbl.find t.ids name with
  | id -> subs_iter t.by_name.(id) event
  | exception Not_found -> ()

let emit t s = emit_name t (Name.v s)

(* A pre-bound emission port: the name is interned at bind time, so
   per-event emission skips the name hash entirely.  [t.by_name] must
   be re-read on every call — interning another name may replace the
   backing array. *)
let port t name =
  let id = intern t name in
  fun () ->
    let event = { Trace.name; time = now_ps t } in
    t.count <- t.count + 1;
    if t.record then t.events_rev <- event :: t.events_rev;
    subs_iter t.all event;
    subs_iter t.by_name.(id) event
let subscribe t f = subs_add t.all f

let subscribe_name t name f =
  let id = intern t name in
  subs_add t.by_name.(id) f

let routed_names t = Hashtbl.length t.ids
let trace t = List.rev t.events_rev
let count t = t.count
