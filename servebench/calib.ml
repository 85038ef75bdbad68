(* Host-speed calibration.  The benchmark shares its host with other
   tenants, and the speed the host gives one process drifts: on a
   2-core x86-64 container, serve's stream time on one fixed input
   moved by 1.8x within three minutes.  A fixed calibration pass, run
   in a fresh process just before each serve run, measures that drift,
   and the end-to-end times are stated at the speed at which one pass
   takes [reference_s].

   The pass is the benchmark's own code and links no loseq library, so
   no change to the program moves it.  It is a breadth-first search
   over a synthetic state graph with a polymorphic-hash visited table,
   the kind of work serve does: boxed tuples, string payloads, hashing,
   a queue, a heap grown to tens of MB in a fresh process.  It runs in
   its own process so that every pass starts from the same heap and
   pays the same process start-up, as serve does. *)

(* A pass's time on the host the benchmark was written on (2-core
   x86-64 container, Xeon at 2.1 GHz, OCaml 5.1.1). *)
let reference_s = 0.4

let states = 400_000

let explore () =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let visit s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s (Hashtbl.length seen);
      Queue.push s queue
    end
  in
  visit (0, 0, "");
  while Hashtbl.length seen < states && not (Queue.is_empty queue) do
    let a, b, label = Queue.pop queue in
    visit
      ((a * 7 + b) land 0xfffff, (b + 3) land 1023, if b land 63 = 0 then string_of_int a else label);
    visit ((a * 13 + 5) land 0xfffff, (b * 5 + a) land 1023, label);
    visit ((a + (b * 17)) land 0xfffff, (b + 1) land 1023, label)
  done;
  Hashtbl.length seen

(* The body of [servebench --calibrate]: one pass, its time on stdout. *)
let main () =
  let t0 = Child.now_s () in
  let n = explore () in
  let t = Child.now_s () -. t0 in
  if n < states then failwith "calibration explored the wrong number of states";
  Printf.printf "%.9f\n" t

(* One pass in a fresh process [exe --calibrate]; its time in seconds. *)
let pass exe =
  let ic = Unix.open_process_args_in exe [| exe; "--calibrate" |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some t -> t
  | _ -> failwith "the calibration pass failed"
