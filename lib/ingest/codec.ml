open Loseq_core

let magic = "LSQB\x01"
let tag_define = 0x01
let tag_event = 0x02
let tag_end = 0x03

(* Fail fast on garbage rather than attempting a multi-megabyte
   "name". *)
let max_name_len = 4096

(* Every define record grows the decoder's name table for the rest of
   the stream, so a stream of defines alone would grow it without
   bound: cap it (a 16-bit id space, far beyond any suite alphabet). *)
let max_names = 1 lsl 16

let looks_binary s =
  let n = min (String.length s) (String.length magic) in
  String.sub s 0 n = String.sub magic 0 n

let sniff s =
  if String.length s > 0 && looks_binary s then `Binary
  else
    let lines = String.split_on_char '\n' s in
    let rec first_payload = function
      | [] -> `Tokens
      | line :: rest ->
          let t = String.trim line in
          if t = "" || t.[0] = '#' then first_payload rest
          else if String.contains t ',' then `Csv
          else `Tokens
    in
    first_payload lines

(* ---- varints (LEB128, unsigned) --------------------------------------- *)

let add_varint buf n =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let low = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

(* ---- streaming encoder ------------------------------------------------- *)

module Encoder = struct
  type t = {
    write : string -> unit;
    ids : (Name.t, int) Hashtbl.t;
    validator : Trace_io.Validator.t;
    buf : Buffer.t;
    mutable prev_time : int;
    mutable events : int;
    mutable finished : bool;
  }

  let create write =
    write magic;
    {
      write;
      ids = Hashtbl.create 16;
      validator = Trace_io.Validator.create ();
      buf = Buffer.create 32;
      prev_time = 0;
      events = 0;
      finished = false;
    }

  let events t = t.events

  let flush_record t =
    t.write (Buffer.contents t.buf);
    Buffer.clear t.buf

  let intern t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.ids in
        Hashtbl.replace t.ids name id;
        let s = Name.to_string name in
        Buffer.add_char t.buf (Char.chr tag_define);
        add_varint t.buf (String.length s);
        Buffer.add_string t.buf s;
        flush_record t;
        id

  let event t (e : Trace.event) =
    if t.finished then Error "Codec.Encoder: stream already finished"
    else if Trace_io.Validator.accept t.validator ~time:e.time then begin
      let id = intern t e.name in
      Buffer.add_char t.buf (Char.chr tag_event);
      add_varint t.buf id;
      add_varint t.buf (e.time - t.prev_time);
      flush_record t;
      t.prev_time <- e.time;
      t.events <- t.events + 1;
      Ok ()
    end
    else
      let pos = Printf.sprintf "event %d" (t.events + 1) in
      Trace_io.Validator.check t.validator ~pos ~time:e.time

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      Buffer.add_char t.buf (Char.chr tag_end);
      add_varint t.buf t.events;
      flush_record t
    end
end

let encode trace =
  let buf = Buffer.create 1024 in
  let enc = Encoder.create (Buffer.add_string buf) in
  let rec feed = function
    | [] ->
        Encoder.finish enc;
        Ok (Buffer.contents buf)
    | e :: rest -> (
        match Encoder.event enc e with
        | Ok () -> feed rest
        | Error _ as err -> err)
  in
  feed trace

let encode_exn trace =
  match encode trace with Ok s -> s | Error msg -> invalid_arg msg

(* ---- streaming decoder ------------------------------------------------- *)

module Decoder = struct
  type state = Header | Records | Ended | Failed of string

  type t = {
    mutable state : state;
    mutable pending : string;  (* buffered partial record *)
    mutable names : Name.t array;
    mutable defined : int;
    mutable prev_time : int;
    mutable events : int;
    mutable records : int;
    mutable consumed : int;  (* absolute offset of [pending]'s start *)
  }

  let create () =
    {
      state = Header;
      pending = "";
      names = [||];
      defined = 0;
      prev_time = 0;
      events = 0;
      records = 0;
      consumed = 0;
    }

  let events t = t.events
  let bytes_consumed t = t.consumed

  let fail t msg =
    t.state <- Failed msg;
    Error msg

  let fail_at t msg =
    fail t
      (Printf.sprintf "record %d (byte %d): %s" (t.records + 1) t.consumed msg)

  let define t name =
    if t.defined = Array.length t.names then begin
      let grown = Array.make (max 8 (2 * t.defined)) name in
      Array.blit t.names 0 grown 0 t.defined;
      t.names <- grown
    end;
    t.names.(t.defined) <- name;
    t.defined <- t.defined + 1

  exception Overlong

  (* Varint at [pos]; [None] when [s] ends mid-varint.  Raises
     {!Overlong} past 63 bits (a malformed stream must not spin the
     reader or wrap the accumulator). *)
  let read_varint s pos limit =
    let rec loop pos shift acc =
      if pos >= limit then None
      else if shift > 63 then raise Overlong
      else
        let b = Char.code s.[pos] in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then Some (acc, pos + 1)
        else loop (pos + 1) (shift + 7) acc
    in
    loop pos 0 0

  (* One record from [s] starting at [pos]; [`Incomplete] leaves the
     suffix buffered for the next feed. *)
  let rec parse_record t s pos limit emit =
    try parse_record_exn t s pos limit emit
    with Overlong -> `Error "overlong varint (more than 63 bits)"

  and parse_record_exn t s pos limit emit =
    let tag = Char.code s.[pos] in
    if tag = tag_define then
      match read_varint s (pos + 1) limit with
      | None -> `Incomplete
      | Some (len, p) ->
          if len > max_name_len then
            `Error (Printf.sprintf "name of %d bytes exceeds limit" len)
          else if t.defined = max_names then
            `Error
              (Printf.sprintf "name table full: more than %d defined names"
                 max_names)
          else if p + len > limit then `Incomplete
          else (
            match Name.v (String.sub s p len) with
            | name ->
                define t name;
                `Record (p + len)
            | exception Invalid_argument msg -> `Error msg)
    else if tag = tag_event then
      match read_varint s (pos + 1) limit with
      | None -> `Incomplete
      | Some (id, p) -> (
          match read_varint s p limit with
          | None -> `Incomplete
          | Some (delta, p) ->
              if id >= t.defined then
                `Error
                  (Printf.sprintf "event references undefined name id %d" id)
              else if delta < 0 || delta > max_int - t.prev_time then
                (* the varint is unsigned: a negative [delta] is one past
                   [max_int] already *)
                `Error
                  (Printf.sprintf
                     "timestamp overflow: time %d plus the delta exceeds %d"
                     t.prev_time max_int)
              else begin
                (* an unsigned delta that does not overflow keeps the
                   stream chronological and non-negative by
                   construction: no validator needed *)
                let time = t.prev_time + delta in
                t.prev_time <- time;
                t.events <- t.events + 1;
                emit { Trace.name = t.names.(id); time };
                `Record p
              end)
    else if tag = tag_end then
      match read_varint s (pos + 1) limit with
      | None -> `Incomplete
      | Some (count, p) ->
          if count <> t.events then
            `Error
              (Printf.sprintf "end record claims %d events, decoded %d" count
                 t.events)
          else `End p
    else `Error (Printf.sprintf "unknown record tag 0x%02x" tag)

  let feed t ?(off = 0) ?len s ~emit =
    let len = match len with Some l -> l | None -> String.length s - off in
    match t.state with
    | Failed msg -> Error msg
    | _ when len = 0 -> Ok ()
    | Ended -> fail t "data after the end record"
    | Header | Records -> (
        let s =
          if t.pending = "" && off = 0 && len = String.length s then s
          else t.pending ^ String.sub s off len
        in
        t.pending <- "";
        let limit = String.length s in
        let pos = ref 0 in
        (* header *)
        let header_result =
          if t.state = Header then begin
            let m = String.length magic in
            if limit - !pos < m then
              if String.sub s !pos (limit - !pos)
                 = String.sub magic 0 (limit - !pos)
              then `Incomplete
              else `Bad
            else if String.sub s !pos m = magic then begin
              pos := !pos + m;
              t.consumed <- t.consumed + m;
              t.state <- Records;
              `Ok
            end
            else `Bad
          end
          else `Ok
        in
        match header_result with
        | `Bad -> fail t "bad magic: not a loseq binary trace"
        | `Incomplete ->
            t.pending <- String.sub s !pos (limit - !pos);
            Ok ()
        | `Ok ->
            let result = ref (Ok ()) in
            let continue_ = ref true in
            while !continue_ && !pos < limit do
              match parse_record t s !pos limit emit with
              | `Record p ->
                  t.records <- t.records + 1;
                  t.consumed <- t.consumed + (p - !pos);
                  pos := p
              | `End p ->
                  t.records <- t.records + 1;
                  t.consumed <- t.consumed + (p - !pos);
                  pos := p;
                  t.state <- Ended;
                  if !pos < limit then begin
                    result := fail t "data after the end record";
                    continue_ := false
                  end
              | `Incomplete ->
                  t.pending <- String.sub s !pos (limit - !pos);
                  continue_ := false
              | `Error msg ->
                  result := fail_at t msg;
                  continue_ := false
            done;
            !result)

  let finish t =
    match t.state with
    | Failed msg -> Error msg
    | Header ->
        if t.pending = "" && t.consumed = 0 then
          fail t "empty input: not a loseq binary trace"
        else fail t "truncated stream: incomplete header"
    | Records when t.pending <> "" ->
        fail t
          (Printf.sprintf "truncated stream: %d byte(s) of an incomplete record"
             (String.length t.pending))
    | Records | Ended -> Ok ()
end

let decode s =
  let acc = ref [] in
  let dec = Decoder.create () in
  match Decoder.feed dec s ~emit:(fun e -> acc := e :: !acc) with
  | Error _ as err -> err
  | Ok () -> (
      match Decoder.finish dec with
      | Error _ as err -> err
      | Ok () -> Ok (List.rev !acc))

let save ~path trace =
  match encode trace with
  | Error _ as err -> err
  | Ok data -> (
      match open_out_bin path with
      | oc ->
          output_string oc data;
          close_out oc;
          Ok ()
      | exception Sys_error msg -> Error msg)

let load path =
  match open_in_bin path with
  | ic ->
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      decode data
  | exception Sys_error msg -> Error msg
