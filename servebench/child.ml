(* One `loseq serve` child: spawned with the workload's flags, stdin
   read from the pre-generated input file (so read(2) chunking, and
   with it every GC count, repeats exactly), stdout parsed record by
   record as it arrives, stderr collected for the runtime's exit GC
   report.  All timing is taken here, outside the child. *)

open Loseq_core

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type status = Exited of int | Signaled of int | Timed_out

type outcome = {
  setup_s : float;  (** spawn -> [start] record read *)
  stream_s : float;  (** [start] -> [summary] record read *)
  summary : Json.t option;
  verdicts : (string * bool * string) list;  (** provenance stripped *)
  errors : string list;  (** [error] records *)
  checkpoints : int;  (** [checkpoint] records *)
  gc : (string * float) list;  (** the OCAMLRUNPARAM=v=0x400 report *)
  status : status;
}

let gc_value o key = List.assoc_opt key o.gc

let summary_int o key =
  match o.summary with
  | Some s -> (
      match Json.member key s with Some (Json.Int n) -> Some n | _ -> None)
  | None -> None

let parse_gc text =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i -> (
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match float_of_string_opt v with
          | Some f -> Some (String.trim (String.sub line 0 i), f)
          | None -> None))
    (String.split_on_char '\n' text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The child's environment: ours, with the exit GC report switched on
   and nothing else of OCAMLRUNPARAM inherited. *)
let child_env () =
  Array.append
    [| "OCAMLRUNPARAM=v=0x400" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
          (Array.to_list (Unix.environment ()))))

let field key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let run ~loseq ~suite ~flags ~input ~gc_path ~timeout =
  let stdin_fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let gc_fd = Unix.openfile gc_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (loseq :: "serve" :: "--suite" :: suite :: flags) in
  let t0 = now_s () in
  let pid = Unix.create_process_env loseq argv (child_env ()) stdin_fd wr gc_fd in
  Unix.close wr;
  Unix.close stdin_fd;
  Unix.close gc_fd;
  let t_start = ref None and t_summary = ref None and summary = ref None in
  let verdicts = ref [] and errors = ref [] and checkpoints = ref 0 in
  let record t line =
    match Json.of_string line with
    | Error msg -> errors := ("unparsable record: " ^ msg) :: !errors
    | Ok j -> (
        match field "type" j with
        | Some (Json.String "start") -> t_start := Some t
        | Some (Json.String "summary") ->
            t_summary := Some t;
            summary := Some j
        | Some (Json.String "verdict") -> (
            match (field "property" j, field "passed" j, field "verdict" j) with
            | Some (Json.String p), Some (Json.Bool b), Some (Json.String v) ->
                verdicts := (p, b, v) :: !verdicts
            | _ -> errors := ("malformed verdict: " ^ line) :: !errors)
        | Some (Json.String "error") -> errors := line :: !errors
        | Some (Json.String "checkpoint") -> incr checkpoints
        | _ -> ())
  in
  let buf = Bytes.create 65536 and partial = Buffer.create 256 in
  let deadline = t0 +. timeout in
  let rec pump () =
    let left = deadline -. now_s () in
    if left <= 0. then `Timed_out
    else
      match Unix.select [ rd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | [], _, _ -> `Timed_out
      | _ -> (
          match Unix.read rd buf 0 (Bytes.length buf) with
          | 0 -> `Eof
          | n ->
              let t = now_s () in
              let chunk = Bytes.sub_string buf 0 n in
              let rec lines from =
                match String.index_from_opt chunk from '\n' with
                | None ->
                    Buffer.add_string partial
                      (String.sub chunk from (String.length chunk - from))
                | Some nl ->
                    Buffer.add_string partial (String.sub chunk from (nl - from));
                    let line = Buffer.contents partial in
                    Buffer.clear partial;
                    record t line;
                    lines (nl + 1)
              in
              lines 0;
              pump ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ())
  in
  let ended = pump () in
  Unix.close rd;
  if ended = `Timed_out then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  let status =
    match (ended, st) with
    | `Timed_out, _ -> Timed_out
    | _, Unix.WEXITED c -> Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signaled s
  in
  let setup_s, stream_s =
    match (!t_start, !t_summary) with
    | Some s, Some e -> (s -. t0, e -. s)
    | Some s, None -> (s -. t0, nan)
    | None, _ -> (nan, nan)
  in
  {
    setup_s;
    stream_s;
    summary = !summary;
    verdicts = List.rev !verdicts;
    errors = List.rev !errors;
    checkpoints = !checkpoints;
    gc = parse_gc (read_file gc_path);
    status;
  }

(* A healthy run: exited 0 (all passed) or 1 (some property failed, as
   the workload intends), no error record, a summary. *)
let healthy o =
  (match o.status with Exited (0 | 1) -> true | _ -> false)
  && o.errors = [] && o.summary <> None

(* Reference verdicts [(label, passed, rendered)] the run did not
   reproduce: all of them when the run was not healthy. *)
let missed reference o =
  if not (healthy o) then List.length reference
  else List.length (List.filter (fun v -> not (List.mem v o.verdicts)) reference)
