open Loseq_core

type entry = { label : string; pattern : Pattern.t; line : int }
type t = entry list
type error = { line : int; message : string }

let pp_error ppf e =
  if e.line = 0 then Format.fprintf ppf "suite error: %s" e.message
  else Format.fprintf ppf "suite error at line %d: %s" e.line e.message

let is_blank s = String.trim s = ""

let valid_label s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       s

let parse source =
  let lines = String.split_on_char '\n' source in
  let rec loop lineno entries seen = function
    | [] -> Ok (List.rev entries)
    | line :: rest -> (
        let trimmed = String.trim line in
        if is_blank trimmed || trimmed.[0] = '#' then
          loop (lineno + 1) entries seen rest
        else
          match String.index_opt trimmed ':' with
          | None ->
              Error
                { line = lineno; message = "expected 'name: pattern'" }
          | Some colon -> (
              let label = String.trim (String.sub trimmed 0 colon) in
              let body =
                String.trim
                  (String.sub trimmed (colon + 1)
                     (String.length trimmed - colon - 1))
              in
              if not (valid_label label) then
                Error
                  {
                    line = lineno;
                    message = Printf.sprintf "invalid entry name %S" label;
                  }
              else if List.mem label seen then
                Error
                  {
                    line = lineno;
                    message = Printf.sprintf "duplicate entry name %S" label;
                  }
              else
                match Parser.pattern body with
                | Ok pattern ->
                    loop (lineno + 1)
                      ({ label; pattern; line = lineno } :: entries)
                      (label :: seen) rest
                | Error e ->
                    Error
                      {
                        line = lineno;
                        message =
                          Format.asprintf "%a" Parser.pp_error e;
                      }))
  in
  loop 1 [] [] lines

let load path =
  match open_in path with
  | ic ->
      let n = in_channel_length ic in
      let source = really_input_string ic n in
      close_in ic;
      parse source
  | exception Sys_error message -> Error { line = 0; message }

let to_string suite =
  String.concat ""
    (List.map
       (fun e ->
         Printf.sprintf "%s: %s\n" e.label (Pattern.to_string e.pattern))
       suite)

let find suite label =
  List.find_map
    (fun e -> if String.equal e.label label then Some e.pattern else None)
    suite

let entries_of suite = List.map (fun e -> (e.label, e.pattern)) suite

let attach_hub ?metrics ?trace ?backend ?mode ?latency_sample_rate tap suite =
  let hub = Hub.create ?metrics ?trace tap in
  List.iter
    (fun e ->
      ignore
        (Hub.add ?backend ?mode ?latency_sample_rate ~name:e.label hub
           e.pattern))
    suite;
  hub

let attach_hub_flat ?metrics ?trace ?latency_sample_rate tap suite =
  let eng, views = Backend.flat_suite (entries_of suite) in
  let hub = Hub.create ?metrics ?trace tap in
  ignore (Hub.host_flat ?latency_sample_rate hub eng views);
  (hub, eng)

let attach_all ?backend ?mode tap suite =
  Hub.report (attach_hub ?backend ?mode tap suite)

let check_trace ?(metrics = Loseq_obs.Metrics.noop) ?(backend = Backend.compiled)
    ?suite_backend ?final_time suite trace =
  let instrument =
    if Loseq_obs.Metrics.is_live metrics then Backend.instrument metrics
    else Fun.id
  in
  let backends =
    match suite_backend with
    | Some sf -> Array.to_list (sf (entries_of suite))
    | None -> List.map (fun e -> backend e.pattern) suite
  in
  List.map2
    (fun e b ->
      let b = instrument b in
      List.iter (fun ev -> ignore (b.Backend.step ev)) trace;
      let now =
        match final_time with
        | Some ft -> ft
        | None -> Trace.end_time trace
      in
      (e.label, Backend.passed (b.Backend.finalize ~now)))
    suite backends
