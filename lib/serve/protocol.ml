(** The serve wire protocol: line-delimited requests in, line-delimited
    JSON responses out.

    Two request spellings share one grammar:

    - a JSON object per line — [{"op":"run","path":"f.t","tenant":"a"}];
      [op] defaults to ["run"], so [{"path":"f.t"}] is a run request;
    - a {!Supervise.Batch} manifest line — [f.t fuel=N tenant=a] — parsed
      by the same parser the batch runner uses, so a batch manifest can
      be piped into a running server unchanged.

    Run responses reuse the [terra-batch-2] request-report schema (the
    exact fields [terra_run --batch] emits per request), extended with
    the serving context: tenant, engine slot, rollback verdict, leak
    report, and the exit code the same program would have produced under
    one-shot [terra_run]. *)

module Json = Tprof.Json
module Diag = Terra.Diag
module Batch = Supervise.Batch

(** One execution request. [fail_alloc]/[trap_in] arm one-shot injected
    faults *relative to the current session* (the Nth allocation / Nth
    retired instruction from now), for soak and chaos traffic. *)
type run_req = {
  r_path : string option;  (** script file; exclusive with [r_src] *)
  r_src : string option;  (** inline program text *)
  r_tenant : string option;
  r_fuel : int option;  (** per-request fuel budget *)
  r_retries : int option;
  r_fail_alloc : int option;
  r_trap_in : int option;
}

type request =
  | Run of run_req
  | Status  (** pool + tenant usage snapshot *)
  | Profile  (** per-engine Tprof profiles *)
  | Breakers  (** per-tenant circuit-breaker states *)
  | Shutdown  (** graceful drain *)

let bad_request fmt =
  Printf.ksprintf
    (fun msg -> Diag.make ~phase:Diag.Eval ~code:"serve.bad-request" msg)
    fmt

let empty_run =
  {
    r_path = None;
    r_src = None;
    r_tenant = None;
    r_fuel = None;
    r_retries = None;
    r_fail_alloc = None;
    r_trap_in = None;
  }

let run_of_batch (b : Batch.request) =
  Run
    {
      empty_run with
      r_path = Some b.Batch.req_file;
      r_tenant = b.Batch.req_tenant;
      r_fuel = b.Batch.req_fuel;
      r_retries = b.Batch.req_retries;
    }

let parse_json_run (obj : Json.t) : (request, Diag.t) result =
  let str k = Json.to_string_opt (Json.member k obj) in
  let int k =
    match Json.member k obj with
    | None -> Ok None
    | Some (Json.Int n) when n >= 0 -> Ok (Some n)
    | Some _ -> Error (bad_request "field '%s' must be a non-negative integer" k)
  in
  let ( let* ) = Result.bind in
  let* fuel = int "fuel" in
  let* retries = int "retries" in
  let* fail_alloc = int "fail_alloc" in
  let* trap_in = int "trap_in" in
  let req =
    {
      r_path = str "path";
      r_src = str "src";
      r_tenant = str "tenant";
      r_fuel = fuel;
      r_retries = retries;
      r_fail_alloc = fail_alloc;
      r_trap_in = trap_in;
    }
  in
  match (req.r_path, req.r_src) with
  | None, None -> Error (bad_request "run request needs 'path' or 'src'")
  | Some _, Some _ ->
      Error (bad_request "run request takes 'path' or 'src', not both")
  | _ -> Ok (Run req)

(** Parse one request line.  [Ok None] for blank/comment lines. *)
let parse (line : string) : (request option, Diag.t) result =
  let trimmed = String.trim line in
  if trimmed = "" then Ok None
  else if trimmed.[0] = '{' then
    match Json.of_string trimmed with
    | Error msg -> Error (bad_request "malformed JSON: %s" msg)
    | Ok obj -> (
        match
          Option.value ~default:"run"
            (Json.to_string_opt (Json.member "op" obj))
        with
        | "run" -> Result.map Option.some (parse_json_run obj)
        | "status" -> Ok (Some Status)
        | "profile" -> Ok (Some Profile)
        | "breakers" -> Ok (Some Breakers)
        | "shutdown" -> Ok (Some Shutdown)
        | op -> Error (bad_request "unknown op '%s'" op))
  else
    (* manifest-line spelling; paths resolve against the server's cwd *)
    match Batch.parse_line ~dir:"." line with
    | Error d -> Error d
    | Ok None -> Ok None
    | Ok (Some b) -> Ok (Some (run_of_batch b))

(* ------------------------------------------------------------------ *)
(* Responses *)

(** The [terra-batch-2] request-report fields shared with
    [terra_run --batch], plus serve-specific extras appended. *)
let entry_json (e : Batch.entry) ~(extra : (string * Json.t) list) : Json.t =
  Json.Obj
    ((("schema", Json.Str "terra-batch-2") :: Batch.entry_fields e) @ extra)

(** The serve-specific extras for a response that never touched an
    engine: parse errors, oversize lines, admission rejections, source
    read failures. *)
let no_engine_extra =
  [
    ("engine", Json.Null);
    ("exit", Json.Int 1);
    ("rollback", Json.Null);
    ("leaked_bytes", Json.Int 0);
    ("recycled", Json.Bool false);
  ]

(** A failure that never touched an engine (bad request, admission
    rejection) rendered in the same shape, so clients parse one schema. *)
let error_json ?(status = "error") ?(tenant = Batch.default_tenant)
    ?(file = "-") ?(extra = no_engine_extra) (d : Diag.t) : Json.t =
  entry_json
    { (Batch.error_entry ~file ~tenant d) with e_status = status }
    ~extra
