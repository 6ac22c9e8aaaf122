(** Batch front end: run many Lua–Terra scripts, each isolated and
    under the supervisor with its own budgets, and emit a per-request
    JSON report.

    Manifest format, one request per line:
    {v
    # comment
    path/to/script.t [fuel=N] [retries=N] [tenant=NAME]
    v}
    Relative paths resolve against the manifest's directory.

    Isolation is the contract: every request starts from its engine's
    factory baseline, so no request sees what another one left behind —
    not its heap blocks, not the C PRNG it advanced, not its breaker
    state.  A row is therefore a function of its manifest line alone,
    and the report is byte-identical however many worker domains drain
    the manifest.

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

(** The row for a supervised run.  A rollback that did not restore the
    session overrides the diagnostic's code. *)
let entry_of_outcome ~file ~tenant (o : Supervisor.outcome) : entry =
  let code, message =
    match o.Supervisor.result with
    | Ok _ -> (None, None)
    | Error d ->
        ( Some
            (match o.Supervisor.rollback with
            | Supervisor.Mismatch _ -> "serve.fingerprint-mismatch"
            | _ -> d.Terra.Diag.code),
          Some d.Terra.Diag.message )
  in
  {
    e_file = file;
    e_status = (if Result.is_ok o.Supervisor.result then "ok" else "error");
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
    e_tenant = tenant;
  }

(* One request on [eng], which the caller has put at its baseline.  The
   breaker key is the tenant (or the file): it seeds the retry backoff,
   while the breaker itself is left out — a fresh breaker per request
   could never open. *)
let run_one ~(config : Supervisor.config) (eng : Terra.Engine.t)
    (req : request) : entry =
  let file = req.req_file in
  let tenant = tenant_of req in
  match read_file file with
  | exception Sys_error msg ->
      error_entry ~file ~tenant
        (Terra.Diag.make ~phase:Terra.Diag.Eval ~code:"batch.io" msg)
  | src ->
      let config =
        {
          config with
          Supervisor.breaker = None;
          call_fuel =
            (match req.req_fuel with
            | Some _ as f -> f
            | None -> config.Supervisor.call_fuel);
          max_retries =
            Option.value req.req_retries ~default:config.Supervisor.max_retries;
        }
      in
      entry_of_outcome ~file ~tenant
        (Supervisor.run_script ~config ?key:req.req_tenant ~file eng src)

(** Run [reqs] isolated on [jobs] worker domains (default 1) drawn from
    a {!Tpool.Pool}.  Worker [w] owns engine [w], built by [make_engine]
    on that domain the first time it is needed, and snapshots it as its
    factory baseline.  Before every request the worker restores that
    baseline and starts a fresh observation slice
    ({!Terra.Engine.reset_scope} [~slice:true]: profile counters, Topt
    statistics, C PRNG, leak mark).  Rows come back in manifest order.

    The second result merges the profile slice of every request whose
    engine profiles (empty when none does).  Each slice is taken before
    the next restore, while its function ids still name its functions. *)
let run ?(config = Supervisor.default_config) ?(jobs = 1)
    ~(make_engine : unit -> Terra.Engine.t) (reqs : request list) :
    entry list * Tprof.Report.t =
  if jobs < 1 then invalid_arg "Batch.run: jobs must be >= 1";
  let slots : (Terra.Engine.t * Terra.Engine.snapshot) option array =
    Array.make jobs None
  in
  let results =
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
            Terra.Engine.reset_scope ~slice:true eng;
            let entry = run_one ~config eng req in
            let profile =
              if (Terra.Engine.probe eng).Tprof.Probe.on then
                Some (Terra.Engine.profile eng)
              else None
            in
            (entry, profile))
          (Array.of_list reqs))
    |> Array.to_list
  in
  (List.map fst results, Tprof.Report.merge (List.filter_map snd results))

(* ------------------------------------------------------------------ *)
(* JSON report *)

(** The report fields of a row, shared with the serve responses. *)
let entry_fields e : (string * Tprof.Json.t) list =
  let module J = Tprof.Json in
  let opt = function Some s -> J.Str s | None -> J.Null in
  [
    ("file", J.Str e.e_file);
    ("status", J.Str e.e_status);
    ("code", opt e.e_code);
    ("message", opt e.e_message);
    ("attempts", J.Int e.e_attempts);
    ("retries", J.Int e.e_retries);
    ("backoff", J.Int e.e_backoff);
    ("fuel", J.Int e.e_fuel);
    ("fallback", J.Bool e.e_fallback);
    ("divergence", opt e.e_divergence);
    ("output", J.Str e.e_output);
    ("tenant", J.Str e.e_tenant);
  ]

(** Render the report: schema header and one row per request. *)
let to_json entries =
  let row e = Tprof.Json.to_string (Tprof.Json.Obj (entry_fields e)) in
  "{\n  \"schema\": \"terra-batch-2\",\n  \"requests\": [\n    "
  ^ String.concat ",\n    " (List.map row entries)
  ^ "\n  ]\n}\n"

(** Run a manifest end to end: parse, {!run}, render.  A malformed
    manifest is a single [batch.bad-manifest] error row, not an
    exception.  Returns the JSON report, the merged profile, and the
    exit code (0 if every request succeeded, 1 otherwise). *)
let run_manifest ?config ?jobs ~make_engine manifest_path :
    string * Tprof.Report.t * int =
  let entries, profile =
    match parse_manifest manifest_path with
    | Ok reqs -> run ?config ?jobs ~make_engine reqs
    | Error d ->
        ( [ error_entry ~file:manifest_path ~tenant:default_tenant d ],
          Tprof.Report.merge [] )
  in
  ( to_json entries,
    profile,
    if List.for_all (fun e -> e.e_status = "ok") entries then 0 else 1 )
