(* Seeded workload generation and the reference verdicts every run is
   checked against.  The program under test only ever sees the
   generated bytes; the generator's intent (which properties it broke)
   is kept here and cross-checked against two independent deciders. *)

open Loseq_core
module Suite = Loseq_verif.Suite

type format = Lsqb | Csv

type t = {
  name : string;
  suite_text : string;
  suite : Suite.t;
  chrono : Trace.event array;  (** the trace in timestamp order *)
  arrival : Trace.event array;  (** the order serve reads it in *)
  input : string;  (** serve's stdin bytes *)
  format : format;
  lateness : int;
  ooo : bool;
  checkpoint_every : int;  (** 0: serve runs without --checkpoint *)
  intended_fail : string list;  (** labels the generator violated *)
}

let names = [ "d64-inorder"; "fleet-jitter"; "fleet-ooo" ]

(* ---- sizes ---------------------------------------------------------------

   d64-inorder streams at a few million events/s, so a serve run needs
   millions of events to last long enough to time; the fleet workloads
   run an order of magnitude slower (CSV decode, reorder buffer,
   speculation) and are sized so that one serve run stays near a
   second. *)

let d64_checkers = 64
let d64_events = 3_000_000
let fleet_devices = 16
let fleet_events = 600_000

(* Fleet timing.  Every timestamp is distinct (ties would leave the
   delivery order of equal-time events to the reorder buffer and make
   the chronological reference ambiguous).  Global gaps of 1..[gap]
   ticks give each device a mean gap of about [devices * gap / 2]
   ticks, so a round's ~105 conclusion events take ~35k ticks against
   the 120k-tick deadline; a deadline-violating round stalls its
   device for [stall] ticks before set_irq. *)
let fleet_gap = 40
let fleet_deadline = 120_000
let fleet_stall = 150_000
let fleet_lateness = 2_000
let fleet_late_per_mille = 60
let fleet_checkpoint_every = 40_000

(* Two violations of each kind, on distinct devices, mid-stream. *)
let fleet_violations = 4

let ev name time = { Trace.name; time }

let lsqb_of events =
  let buf = Buffer.create (Array.length events * 3) in
  let enc = Loseq_ingest.Codec.Encoder.create (Buffer.add_string buf) in
  Array.iter
    (fun e ->
      match Loseq_ingest.Codec.Encoder.event enc e with
      | Ok () -> ()
      | Error msg -> invalid_arg msg)
    events;
  Loseq_ingest.Codec.Encoder.finish enc;
  Buffer.contents buf

let csv_of events =
  let buf = Buffer.create (Array.length events * 20) in
  Buffer.add_string buf "time,name\n";
  Array.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf (string_of_int e.time);
      Buffer.add_char buf ',';
      Buffer.add_string buf (Name.to_string e.name);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let parse_suite text =
  match Suite.parse text with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "generated suite: %a" Suite.pp_error e)

(* ---- d64-inorder --------------------------------------------------------- *)

(* 64 disjoint [{a_i, b_i} <<! go_i] checkers, every one passing: each
   recognition triple is a seeded checker with its premises in seeded
   order, one to three ticks apart.  One route per event and no timed
   property, so the hot path is decode -> session clock -> hub -> step. *)
let d64 rng =
  let n = d64_checkers in
  let suite_text =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "p%02d: {a%d, b%d} <<! go%d\n" i i i i))
  in
  let nm fmt i = Name.v (Printf.sprintf fmt i) in
  let a = Array.init n (nm "a%d")
  and b = Array.init n (nm "b%d")
  and go = Array.init n (nm "go%d") in
  let chrono = Array.make d64_events (ev a.(0) 0) in
  let t = ref 0 in
  let next () =
    t := !t + 1 + Random.State.int rng 3;
    !t
  in
  for r = 0 to (d64_events / 3) - 1 do
    let i = Random.State.int rng n in
    let x, y = if Random.State.bool rng then (a.(i), b.(i)) else (b.(i), a.(i)) in
    chrono.(3 * r) <- ev x (next ());
    chrono.((3 * r) + 1) <- ev y (next ());
    chrono.((3 * r) + 2) <- ev go.(i) (next ())
  done;
  {
    name = "d64-inorder";
    suite_text;
    suite = parse_suite suite_text;
    chrono;
    arrival = chrono;
    input = lsqb_of chrono;
    format = Lsqb;
    lateness = 0;
    ooo = false;
    checkpoint_every = 0;
    intended_fail = [];
  }

(* ---- fleet --------------------------------------------------------------- *)

(* The IPU bring-up contract of examples/specs/ipu.suite, one copy per
   device with every name prefixed by the device: 3 properties per
   device, one of them timed. *)
let ipu_device p =
  [
    ("config_every_round",
     Printf.sprintf "{%sset_imgAddr, %sset_glAddr, %sset_glSize} <<! %sstart" p p p p);
    ( "recognition_bounded",
      Printf.sprintf "%sstart => %sread_img[100,60000] < %sset_irq within %d" p p p
        fleet_deadline );
    ("lock_protocol", Printf.sprintf "%stake_lock < %srelease_lock <<! %sbus_idle" p p p);
  ]

let fleet_suite_text () =
  String.concat ""
    (List.concat
       (List.init fleet_devices (fun d ->
            let p = Printf.sprintf "d%02d_" d in
            List.map
              (fun (label, body) -> Printf.sprintf "%s%s: %s\n" p label body)
              (ipu_device p))))

type violation = Missing_config | Late_irq

(* One device round: config writes in seeded order (one dropped when
   the round violates the config property), start, 100..110 image
   reads, set_irq (after a stall past the deadline when the round
   violates the timed property), then the lock handshake. *)
let round rng prefix violation =
  let n s = Name.v (prefix ^ s) in
  let configs = [| n "set_imgAddr"; n "set_glAddr"; n "set_glSize" |] in
  for i = 2 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = configs.(i) in
    configs.(i) <- configs.(j);
    configs.(j) <- x
  done;
  let configs =
    match violation with
    | Some Missing_config -> [ configs.(0); configs.(1) ]
    | _ -> Array.to_list configs
  in
  let reads = List.init (100 + Random.State.int rng 11) (fun _ -> n "read_img") in
  let irq = (n "set_irq", match violation with Some Late_irq -> fleet_stall | _ -> 0) in
  List.map (fun x -> (x, 0)) (configs @ [ n "start" ] @ reads)
  @ [ irq ]
  @ List.map (fun x -> (x, 0)) [ n "take_lock"; n "release_lock"; n "bus_idle" ]

let fleet ~name ~ooo rng =
  let suite_text = fleet_suite_text () in
  (* Each device's mean round is ~112 events; the violating rounds sit
     in the middle half of the stream. *)
  let rounds_per_device = fleet_events / fleet_devices / 112 in
  let devices = Array.init fleet_devices Fun.id in
  for i = fleet_devices - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = devices.(i) in
    devices.(i) <- devices.(j);
    devices.(j) <- x
  done;
  let plan =
    List.init fleet_violations (fun k ->
        ( devices.(k),
          (rounds_per_device / 4) + Random.State.int rng (rounds_per_device / 2),
          if k mod 2 = 0 then Missing_config else Late_irq ))
  in
  let intended_fail =
    List.map
      (fun (d, _, kind) ->
        Printf.sprintf "d%02d_%s" d
          (match kind with
          | Missing_config -> "config_every_round"
          | Late_irq -> "recognition_bounded"))
      plan
  in
  let pending = Array.make fleet_devices [] in
  let rounds = Array.make fleet_devices 0 in
  let resume_at = Array.make fleet_devices 0 in
  let refill d =
    let r = rounds.(d) in
    rounds.(d) <- r + 1;
    let violation =
      List.find_map (fun (d', r', k) -> if d = d' && r = r' then Some k else None) plan
    in
    pending.(d) <- round rng (Printf.sprintf "d%02d_" d) violation
  in
  let out = ref [] and count = ref 0 and t = ref 0 in
  let live () =
    let l = ref [] in
    for d = fleet_devices - 1 downto 0 do
      if pending.(d) <> [] || rounds.(d) < rounds_per_device then l := d :: !l
    done;
    !l
  in
  let rec loop () =
    match live () with
    | [] -> ()
    | ds ->
        t := !t + 1 + Random.State.int rng fleet_gap;
        let ready = List.filter (fun d -> resume_at.(d) <= !t) ds in
        (match ready with
        | [] -> ()
        | _ ->
            let d = List.nth ready (Random.State.int rng (List.length ready)) in
            if pending.(d) = [] then refill d;
            (match pending.(d) with
            | (x, 0) :: rest ->
                out := ev x !t :: !out;
                incr count;
                pending.(d) <- rest
            | (x, stall) :: rest ->
                (* emit on the next pick once the stall has elapsed *)
                resume_at.(d) <- !t + stall;
                pending.(d) <- (x, 0) :: rest
            | [] -> ()));
        loop ()
  in
  loop ();
  let chrono = Array.of_list (List.rev !out) in
  (* Jitter: a seeded minority arrives up to [fleet_lateness] ticks
     late.  Arrival order is a stable sort on time + delay, so every
     event arrives while max_seen <= its time + lateness and the
     buffer admits it: nothing is dropped. *)
  let keyed =
    Array.mapi
      (fun i (e : Trace.event) ->
        let delay =
          if Random.State.int rng 1000 < fleet_late_per_mille then
            1 + Random.State.int rng fleet_lateness
          else 0
        in
        (e.time + delay, i))
      chrono
  in
  Array.stable_sort compare keyed;
  let arrival = Array.map (fun (_, i) -> chrono.(i)) keyed in
  {
    name;
    suite_text;
    suite = parse_suite suite_text;
    chrono;
    arrival;
    input = csv_of arrival;
    format = Csv;
    lateness = fleet_lateness;
    ooo;
    checkpoint_every = (if ooo then 0 else fleet_checkpoint_every);
    intended_fail = List.sort compare intended_fail;
  }

(* The fleet workloads share one input per seed: the generator's
   stream is seeded the same for both, so fleet-ooo reads the very
   bytes fleet-jitter reads. *)
let generate ~seed name =
  let rng tag = Random.State.make [| seed; tag |] in
  match name with
  | "d64-inorder" -> d64 (rng 64)
  | "fleet-jitter" -> fleet ~name ~ooo:false (rng 16)
  | "fleet-ooo" -> fleet ~name ~ooo:true (rng 16)
  | other -> invalid_arg ("unknown workload " ^ other)

let serve_flags ?checkpoint w =
  (if w.lateness > 0 then [ "--lateness"; string_of_int w.lateness ] else [])
  @ (if w.ooo then [ "--ooo" ] else [])
  @
  match checkpoint with
  | Some path when w.checkpoint_every > 0 ->
      [ "--checkpoint"; path; "--checkpoint-every"; string_of_int w.checkpoint_every ]
  | _ -> []

(* ---- the reference ------------------------------------------------------- *)

(* Name -> indices of the suite entries whose alphabet holds it. *)
let routes (suite : Suite.t) =
  let r = Hashtbl.create 256 in
  List.iteri
    (fun i (e : Suite.entry) ->
      Name.Set.iter
        (fun n ->
          let prev = Option.value ~default:[||] (Hashtbl.find_opt r n) in
          Hashtbl.replace r n (Array.append prev [| i |]))
        (Pattern.alpha e.pattern))
    suite;
  r

let route routes (e : Trace.event) = Option.value ~default:[||] (Hashtbl.find_opt routes e.name)

(* Per property, in suite order: label, passed, rendered verdict —
   what serve's verdict records must carry once provenance is
   stripped. *)
type reference = (string * bool * string) list

exception Reference_mismatch of string

(* Passed flags come from the batch checker over the chronological
   trace, one property at a time on the events of its own alphabet
   (the batch checker steps every entry over every event it is given,
   so handing each entry only its own events keeps the reference
   linear in the trace) with the whole trace's end as final time.  The
   rendered strings come from an in-order session hosting the whole
   suite over the whole trace.  Both must agree with each other and
   with the generator's intent, and every intended failure must also
   be a failure of the declarative semantics on the property's own
   sub-trace. *)
let own_traces (suite : Suite.t) chrono =
  let routes = routes suite in
  let own = Array.make (List.length suite) [] in
  for j = Array.length chrono - 1 downto 0 do
    let e = chrono.(j) in
    Array.iter (fun i -> own.(i) <- e :: own.(i)) (route routes e)
  done;
  own

let reference w =
  let n = Array.length w.chrono in
  let final_time = if n = 0 then 0 else w.chrono.(n - 1).time in
  let own = own_traces w.suite w.chrono in
  let batch =
    List.concat
      (List.mapi (fun i e -> Suite.check_trace ~final_time [ e ] own.(i)) w.suite)
  in
  let session = Loseq_ingest.Session.create w.suite in
  Array.iter (Loseq_ingest.Session.offer_force session) w.chrono;
  let strings =
    Loseq_verif.Report.summary_strings (Loseq_ingest.Session.finalize session)
  in
  let fail fmt = Printf.ksprintf (fun s -> raise (Reference_mismatch s)) fmt in
  let verdicts =
    List.map2
      (fun (label, passed) (label', rendered) ->
        if label <> label' then fail "label order %s <> %s" label label';
        if String.starts_with ~prefix:"pass" rendered <> passed then
          fail "%s: batch checker says %b, session renders %S" label passed rendered;
        (label, passed, rendered))
      batch strings
  in
  let failing =
    List.sort compare
      (List.filter_map (fun (l, p, _) -> if p then None else Some l) verdicts)
  in
  if failing <> w.intended_fail then
    fail "generator intended [%s] to fail, batch checker failed [%s]"
      (String.concat "; " w.intended_fail)
      (String.concat "; " failing);
  List.iteri
    (fun i (e : Suite.entry) ->
      if List.mem e.label w.intended_fail && Semantics.holds ~final_time e.pattern own.(i) then
        fail "%s: generator intended a failure, the semantics say it holds" e.label)
    w.suite;
  verdicts
