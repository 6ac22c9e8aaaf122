(** Batch front end: run many Lua–Terra scripts against one shared
    engine, each under the supervisor with its own budgets, and emit a
    per-request JSON report.

    Manifest format, one request per line:
    {v
    # comment
    path/to/script.t [fuel=N] [retries=N] [tenant=NAME]
    v}
    Relative paths resolve against the manifest's directory.  Because
    every request runs transactionally, a faulting script cannot corrupt
    the shared session: the next request starts from the state the
    previous successful request committed.

    The same option grammar budgets requests for the serving layer
    ([Serve]): a serve request line is a manifest line, parsed by
    {!parse_line}. *)

type request = {
  req_file : string;
  req_fuel : int option;  (** per-attempt fuel budget override *)
  req_retries : int option;  (** max-retries override *)
  req_tenant : string option;  (** owning tenant (serve/breaker key) *)
}

type entry = {
  e_file : string;
  e_status : string;  (** "ok" or "error" *)
  e_code : string option;  (** diagnostic code on error *)
  e_message : string option;  (** diagnostic message on error *)
  e_attempts : int;
  e_retries : int;
  e_backoff : int;
  e_fuel : int;
  e_fallback : bool;
  e_divergence : string option;  (** opt-divergence code when detected *)
  e_output : string;  (** captured output of the final attempt *)
  e_tenant : string;  (** tenant the request ran as ("default" if none) *)
}

(* ------------------------------------------------------------------ *)
(* Manifest parsing.  A malformed line is a structured
   [batch.bad-manifest] diagnostic, not an exception: a daemon feeding
   manifests into a shared engine must be able to reject one bad
   request line and keep serving. *)

let bad_manifest ~line_no fmt =
  Printf.ksprintf
    (fun msg ->
      Terra.Diag.make ~phase:Terra.Diag.Eval ~code:"batch.bad-manifest"
        (Printf.sprintf "manifest line %d: %s" line_no msg))
    fmt

(** Parse one manifest line.  [Ok None] for blank/comment lines,
    [Ok (Some req)] for a request, [Error diag] ([batch.bad-manifest])
    for a malformed one. *)
let parse_line ~dir ?(line_no = 0) line :
    (request option, Terra.Diag.t) result =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | path :: opts -> (
      let req =
        ref
          {
            req_file =
              (if Filename.is_relative path then Filename.concat dir path
               else path);
            req_fuel = None;
            req_retries = None;
            req_tenant = None;
          }
      in
      let bad = ref None in
      let fail d = if !bad = None then bad := Some d in
      List.iter
        (fun opt ->
          match String.index_opt opt '=' with
          | Some i -> (
              let k = String.sub opt 0 i in
              let v = String.sub opt (i + 1) (String.length opt - i - 1) in
              let int_val () =
                match int_of_string_opt v with
                | Some n when n >= 0 -> Some n
                | _ ->
                    fail
                      (bad_manifest ~line_no
                         "option '%s' needs a non-negative integer, got '%s'"
                         k v);
                    None
              in
              match k with
              | "fuel" -> (
                  match int_val () with
                  | Some n -> req := { !req with req_fuel = Some n }
                  | None -> ())
              | "retries" -> (
                  match int_val () with
                  | Some n -> req := { !req with req_retries = Some n }
                  | None -> ())
              | "tenant" ->
                  if v = "" then
                    fail (bad_manifest ~line_no "empty tenant name")
                  else req := { !req with req_tenant = Some v }
              | _ -> fail (bad_manifest ~line_no "unknown option '%s'" opt))
          | None -> fail (bad_manifest ~line_no "malformed option '%s'" opt))
        opts;
      match !bad with Some d -> Error d | None -> Ok (Some !req))

(** Parse a manifest file into requests; the first malformed line wins. *)
let parse_manifest path : (request list, Terra.Diag.t) result =
  match open_in path with
  | exception Sys_error msg ->
      Error
        (Terra.Diag.make ~phase:Terra.Diag.Eval ~code:"batch.io" msg)
  | ic ->
      let dir = Filename.dirname path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop line_no acc =
            match input_line ic with
            | line -> (
                match parse_line ~dir ~line_no line with
                | Ok (Some r) -> loop (line_no + 1) (r :: acc)
                | Ok None -> loop (line_no + 1) acc
                | Error d -> Error d)
            | exception End_of_file -> Ok (List.rev acc)
          in
          loop 1 [])

(* ------------------------------------------------------------------ *)
(* Execution *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The tenant a request runs as when the manifest names none. *)
let default_tenant = "default"

let tenant_of req = Option.value req.req_tenant ~default:default_tenant

(** The row for a request that failed before any engine time: a bad
    manifest, an unreadable script, a refused serve request. *)
let error_entry ~file ~tenant (d : Terra.Diag.t) : entry =
  {
    e_file = file;
    e_status = "error";
    e_code = Some d.Terra.Diag.code;
    e_message = Some d.Terra.Diag.message;
    e_attempts = 0;
    e_retries = 0;
    e_backoff = 0;
    e_fuel = 0;
    e_fallback = false;
    e_divergence = None;
    e_output = "";
    e_tenant = tenant;
  }

(** Run [reqs] in order against [eng], each under the supervisor.  All
    requests share one circuit breaker (from [config], or a fresh one);
    untenanted requests break per-script (key = file) as before, while a
    [tenant=NAME] annotation pools the tenant's requests under one
    breaker key, so one misbehaving tenant trips its own circuit without
    touching anyone else's. *)
let run_one ~(config : Supervisor.config) ~breaker (eng : Terra.Engine.t)
    (req : request) : entry =
  let file = req.req_file in
  match read_file file with
  | exception Sys_error msg ->
      error_entry ~file ~tenant:(tenant_of req)
        (Terra.Diag.make ~phase:Terra.Diag.Eval ~code:"batch.io" msg)
  | src ->
      let cfg =
        {
          config with
          Supervisor.breaker = Some breaker;
          call_fuel =
            (match req.req_fuel with
            | Some _ as f -> f
            | None -> config.Supervisor.call_fuel);
          max_retries =
            (match req.req_retries with
            | Some n -> n
            | None -> config.Supervisor.max_retries);
        }
      in
      let o =
        Supervisor.run_script ~config:cfg ?key:req.req_tenant ~file eng src
      in
      let code, message =
        match o.Supervisor.result with
        | Ok _ -> (None, None)
        | Error d -> (Some d.Terra.Diag.code, Some d.Terra.Diag.message)
      in
      {
        e_file = file;
        e_status =
          (if Result.is_ok o.Supervisor.result then "ok" else "error");
        e_code = code;
        e_message = message;
        e_attempts = o.Supervisor.attempts;
        e_retries = o.Supervisor.retries;
        e_backoff = o.Supervisor.backoff_total;
        e_fuel = o.Supervisor.fuel_used;
        e_fallback = o.Supervisor.fallback;
        e_divergence =
          Option.map (fun d -> d.Terra.Diag.code) o.Supervisor.divergence;
        e_output = o.Supervisor.output;
        e_tenant = tenant_of req;
      }

let run_requests ?(config = Supervisor.default_config)
    (eng : Terra.Engine.t) (reqs : request list) : entry list =
  let breaker =
    match config.Supervisor.breaker with
    | Some b -> b
    | None -> Policy.breaker ()
  in
  List.map (fun req -> run_one ~config ~breaker eng req) reqs

(* ------------------------------------------------------------------ *)
(* Parallel execution.  [jobs] worker domains drain the request list
   through a {!Tpool.Pool}; worker [w] owns engine [w] exclusively, so
   no engine is ever touched by two domains.  Entries come back in
   manifest order regardless of which worker ran what.

   The parallel path trades the sequential path's shared-session
   semantics for full request independence: every request starts from
   its worker engine restored to the factory-fresh baseline snapshot
   (so heap addresses, interned statics, and fuel deltas cannot depend
   on which requests ran before it on that engine) and supervises under
   its own circuit breaker.  That independence is what makes the merged
   report a pure function of the manifest: [jobs=4] is byte-identical
   to [jobs=1], which the CI parallel gate asserts.  The engine-wide
   profile is per-engine state and is deliberately absent from parallel
   reports. *)

let run_requests_par ?(config = Supervisor.default_config) ~jobs
    ~(make_engine : unit -> Terra.Engine.t) (reqs : request list) :
    entry list =
  if jobs < 1 then invalid_arg "Batch.run_requests_par: jobs must be >= 1";
  (* per-worker engine + pristine baseline, created lazily on the worker
     domain itself so even engine construction parallelizes *)
  let slots : (Terra.Engine.t * Terra.Engine.snapshot) option array =
    Array.make jobs None
  in
  let entries =
    Tpool.Pool.with_pool ~domains:jobs (fun pool ->
        Tpool.Pool.map_workers pool
          (fun ~worker req ->
            let eng, baseline =
              match slots.(worker) with
              | Some pair -> pair
              | None ->
                  let eng = make_engine () in
                  let pair = (eng, Terra.Engine.snap eng) in
                  slots.(worker) <- Some pair;
                  pair
            in
            Terra.Engine.restore_snap eng baseline;
            run_one ~config ~breaker:(Policy.breaker ()) eng req)
          (Array.of_list reqs))
  in
  Array.to_list entries

(* ------------------------------------------------------------------ *)
(* JSON report *)

let json_str s = "\"" ^ Tprof.Json.escape s ^ "\""
let json_opt = function Some s -> json_str s | None -> "null"

let entry_to_json e =
  Printf.sprintf
    "{\"file\": %s, \"status\": %s, \"code\": %s, \"message\": %s, \
     \"attempts\": %d, \"retries\": %d, \"backoff\": %d, \"fuel\": %d, \
     \"fallback\": %b, \"divergence\": %s, \"output\": %s, \"tenant\": %s}"
    (json_str e.e_file) (json_str e.e_status) (json_opt e.e_code)
    (json_opt e.e_message) e.e_attempts e.e_retries e.e_backoff e.e_fuel
    e.e_fallback (json_opt e.e_divergence) (json_str e.e_output)
    (json_str e.e_tenant)

(** Render the whole report: schema header, per-request rows, and the
    engine-wide profile accumulated across all requests. *)
let to_json ?profile entries =
  let requests =
    "[\n    " ^ String.concat ",\n    " (List.map entry_to_json entries) ^ "\n  ]"
  in
  let profile_field =
    match profile with
    | Some p -> ",\n  \"profile\": " ^ p
    | None -> ""
  in
  "{\n  \"schema\": \"terra-batch-2\",\n  \"requests\": " ^ requests
  ^ profile_field ^ "\n}\n"

(** Did every request succeed? *)
let all_ok entries = List.for_all (fun e -> e.e_status = "ok") entries

(* Parse a manifest and run its requests; a malformed manifest is a
   single [batch.bad-manifest] error row, not an exception. *)
let manifest_entries manifest_path run =
  match parse_manifest manifest_path with
  | Ok reqs -> run reqs
  | Error d -> [ error_entry ~file:manifest_path ~tenant:default_tenant d ]

(** Run a manifest end to end: parse, execute against [eng], render.
    The report carries the engine's profile when its probe has profiling
    on.  Returns the JSON report and the suggested exit code (0 if every
    request succeeded, 1 otherwise). *)
let run_manifest ?config eng manifest_path : string * int =
  let entries = manifest_entries manifest_path (run_requests ?config eng) in
  let probe = Terra.Context.probe eng.Terra.Engine.ctx in
  let profile =
    if probe.Tprof.Probe.on then Some (Terra.Engine.profile_json eng) else None
  in
  (to_json ?profile entries, if all_ok entries then 0 else 1)

(** Parallel {!run_manifest}: [jobs] worker domains, rows merged in
    manifest order.  The report is a pure function of the manifest —
    identical for every [jobs] value (see {!run_requests_par}); it never
    carries the engine-wide profile. *)
let run_manifest_par ?config ~jobs ~make_engine manifest_path : string * int
    =
  let entries =
    manifest_entries manifest_path
      (run_requests_par ?config ~jobs ~make_engine)
  in
  (to_json entries, if all_ok entries then 0 else 1)
