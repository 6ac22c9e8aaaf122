(* terra_serve: the long-running, fault-isolated, multi-tenant front
   end.  Speaks line-delimited JSON (or batch-manifest lines) over
   stdin/stdout, or over a Unix domain socket with --socket.

   Exit codes: 0 = clean drain, 2 = the final leak check found pooled
   engines holding live heap blocks. *)

let serve_socket server path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  prerr_endline ("terra_serve: listening on " ^ path);
  (* one client at a time: each connection gets the whole request loop,
     and serialized clients keep every supervision decision
     deterministic *)
  let code = ref 0 in
  (try
     let rec accept_loop () =
       let fd, _ = Unix.accept sock in
       let ic = Unix.in_channel_of_descr fd in
       let oc = Unix.out_channel_of_descr fd in
       let rc = Serve.Server.run_channels server ic oc in
       (try Unix.close fd with Unix.Unix_error _ -> ());
       code := rc;
       if Serve.Server.(server.draining) then () else accept_loop ()
     in
     accept_loop ()
   with Sys.Break -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  !code

let main socket pool workers recycle_after checked no_verify_rollback opt
    fuel mem_bytes request_fuel tenant_fuel tenant_mem tenant_depth
    tenant_inflight retries max_line durable recover ckpt_interval crash_at
    cache quiet =
  Sys.catch_break true;
  (* SIGTERM drains exactly like SIGINT/EOF: route it through the same
     Sys.Break the serve loops already handle, so `kill` gets a graceful
     drain — WAL barrier flushed, final pool leak check — not a torn
     tail.  (Unavailable on platforms without sigterm; best effort.) *)
  (try
     Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break))
   with Invalid_argument _ | Sys_error _ -> ());
  if not quiet then Supervise.Supervisor.log_sink := prerr_endline;
  let budget =
    {
      Serve.Tenant.default_budget with
      fuel_per_request = request_fuel;
      fuel_total = Option.value tenant_fuel ~default:max_int;
      mem_bytes = Option.value tenant_mem ~default:max_int;
      max_call_depth = tenant_depth;
      max_inflight = tenant_inflight;
      max_retries = retries;
    }
  in
  let config =
    {
      Serve.Server.pool_size = pool;
      workers;
      recycle_after;
      verify_rollback = not no_verify_rollback;
      checked;
      opt_level = opt;
      engine_fuel = fuel;
      mem_bytes;
      default_budget = budget;
      max_line_bytes = max_line;
      log = (if quiet then ignore else prerr_endline);
      (* one handle shared by every pool engine and worker domain *)
      cache = Option.map (fun dir -> Terra.Ccache.create ~dir ()) cache;
    }
  in
  let run server =
    match socket with
    | Some path -> serve_socket server path
    | None -> Serve.Server.run_channels server stdin stdout
  in
  let fail (d : Terra.Diag.t) =
    Printf.eprintf "terra_serve: %s: %s\n%!" d.Terra.Diag.code
      d.Terra.Diag.message;
    1
  in
  try
    match recover with
    | Some dir -> (
        match
          Serve.Server.recover ~config ~dir ~interval:ckpt_interval ?crash_at
            ()
        with
        | Ok (server, report) ->
            (* the recovery report is the first response line, so a
               driving client learns where to resume the workload *)
            print_endline (Tprof.Json.to_string report);
            flush stdout;
            run server
        | Error d -> fail d)
    | None -> (
        let server = Serve.Server.create ~config () in
        match durable with
        | None -> run server
        | Some dir -> (
            match
              Serve.Server.enable_durability server ~dir
                ~interval:ckpt_interval ?crash_at ()
            with
            | Ok () -> run server
            | Error d -> fail d))
  with Serve.Durable.Crashed n ->
    (* simulated kill -9: no drain, no flush beyond what the journal
       already forced *)
    Printf.eprintf "terra_serve: simulated crash at durability event %d\n%!"
      n;
    137

let () =
  let open Cmdliner in
  (* flags that are counts or intervals reject 0/negatives up front,
     instead of surfacing as runtime surprises deep in the serve loop *)
  let pos_int label =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n ->
          Error (`Msg (Printf.sprintf "%s must be >= 1 (got %d)" label n))
      | None ->
          Error (`Msg (Printf.sprintf "%s must be an integer >= 1 (got %s)" label s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "listen on a Unix domain socket instead of stdin/stdout; \
             clients are served one at a time.")
  in
  let pool =
    Arg.(
      value & opt int 2
      & info [ "pool" ] ~docv:"N" ~doc:"warm engines kept in the pool.")
  in
  let workers =
    Arg.(
      value
      & opt (pos_int "--workers") 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "execute run requests on $(docv) worker domains, at most \
             $(docv) (and at most $(b,--pool)) at once; each request \
             checks a private engine out of the pool and responses keep \
             request order.  A request waits for a free worker; it is \
             never rejected for arriving early.  Composes with \
             $(b,--durable)/$(b,--recover): replay pins each request to \
             the engine slot it originally ran on.")
  in
  let recycle_after =
    Arg.(
      value & opt int 64
      & info [ "recycle-after" ] ~docv:"N"
          ~doc:
            "recycle an engine after serving $(docv) requests (bounds \
             compiled-code and statics growth on shared sessions).")
  in
  let checked =
    Arg.(
      value & flag
      & info [ "checked" ]
          ~doc:"TerraSan checked engines (redzones, quarantine, leak check).")
  in
  let no_verify_rollback =
    Arg.(
      value & flag
      & info [ "no-verify-rollback" ]
          ~doc:
            "skip the per-request fingerprint check that proves a failed \
             request left its engine byte-identical (on by default).")
  in
  let opt =
    Arg.(
      value & opt int 2
      & info [ "opt" ] ~docv:"LEVEL" ~doc:"Topt optimization level (0-2).")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"per-engine session fuel budget.")
  in
  let mem_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem" ] ~docv:"BYTES" ~doc:"heap size per pooled engine.")
  in
  let request_fuel =
    Arg.(
      value
      & opt int 2_000_000_000
      & info [ "request-fuel" ] ~docv:"N"
          ~doc:
            "per-request fuel cap (watchdog); a request asking for more \
             is rejected with serve.rejected.")
  in
  let tenant_fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenant-fuel" ] ~docv:"N"
          ~doc:"cumulative per-tenant fuel budget (default: unbounded).")
  in
  let tenant_mem =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenant-mem" ] ~docv:"BYTES"
          ~doc:
            "cumulative per-tenant committed heap-growth budget (default: \
             unbounded).")
  in
  let tenant_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenant-depth" ] ~docv:"N"
          ~doc:"per-request call-depth cap applied to every tenant.")
  in
  let tenant_inflight =
    Arg.(
      value
      & opt (pos_int "--tenant-inflight") 1
      & info [ "tenant-inflight" ] ~docv:"N"
          ~doc:
            "in-flight request budget per tenant: caps how many of a \
             tenant's requests run at once; a request waits for room \
             rather than being rejected.  Durable parallel sessions \
             ($(b,--durable) with $(b,--workers) > 1) require 1: \
             same-tenant order must be deterministic for replay.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"default transient-fault (fault.*) retries per request.")
  in
  let max_line =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "request-line length cap; longer lines are drained and \
             rejected with serve.bad-request.")
  in
  let durable =
    Arg.(
      value
      & opt (some string) None
      & info [ "durable" ] ~docv:"DIR"
          ~doc:
            "write-ahead journal and periodic checkpoints in $(docv); a \
             crashed session is recoverable with $(b,--recover).")
  in
  let recover =
    Arg.(
      value
      & opt (some string) None
      & info [ "recover" ] ~docv:"DIR"
          ~doc:
            "recover a durable session from $(docv): load the newest valid \
             checkpoint, replay the committed journal suffix, verify \
             fingerprints, then keep serving durably.")
  in
  let ckpt_interval =
    Arg.(
      value
      & opt (pos_int "--ckpt-interval") 32
      & info [ "ckpt-interval" ] ~docv:"N"
          ~doc:"checkpoint the pool every $(docv) committed requests.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some (pos_int "--crash-at")) None
      & info [ "crash-at" ] ~docv:"N"
          ~doc:
            "abort the process (exit 137, no drain) before the $(docv)th \
             durability event — deterministic kill-point chaos for \
             recovery testing.")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "persistent compilation cache shared by the warm engine pool \
             and every $(b,--workers) domain: compiled IR is stored in \
             $(docv) (created if missing) and reused across requests, \
             engine recycles, and process restarts.  Corrupt entries are \
             detected and transparently recompiled; counters appear in \
             the $(b,status) op.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"suppress supervision narration on stderr.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "terra_serve"
         ~doc:
           "fault-isolated multi-tenant Lua-Terra daemon with warm engine \
            pools, admission control, verified per-request rollback, and \
            durable crash-recoverable sessions")
      Term.(
        const main $ socket $ pool $ workers $ recycle_after $ checked
        $ no_verify_rollback $ opt $ fuel $ mem_bytes $ request_fuel
        $ tenant_fuel $ tenant_mem $ tenant_depth $ tenant_inflight $ retries
        $ max_line $ durable $ recover $ ckpt_interval $ crash_at $ cache
        $ quiet)
  in
  exit (Cmd.eval' cmd)
