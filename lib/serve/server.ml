(** The terra_serve core: one request loop composing the pool, the
    tenant table, and the supervision stack into a daemon that survives
    arbitrary tenant misbehavior.

    Per request, in order:

    + tenant admission (fuel and memory budgets) — rejection is a
      [serve.rejected] response and costs no engine time;
    + checkout of a warm engine; a fresh observation slice on it
      ([Engine.reset_scope ~slice:true]: per-request Tprof attribution,
      re-armed leak check);
    + optional relative fault injection (chaos traffic);
    + a supervised transactional run ({!Supervise.Supervisor.run_script}
      with the tenant's breaker, fuel watchdog, retry budget, and
      opt2→opt0 degradation) — any failure rolls the session back;
    + rollback verification: after a failed request the engine
      fingerprint must be byte-identical to the pre-request one; a
      mismatch is reported ([serve.fingerprint-mismatch], exit 3) and
      the engine is recycled rather than trusted again;
    + the per-request leak check; a leaky request is reported once and
      its engine recycled;
    + tenant settlement and pool checkin (wear-based recycling).

    The loop drains gracefully on [{"op":"shutdown"}], end of input, or
    SIGINT/SIGTERM (with [Sys.catch_break true]): requests already
    dispatched finish and are answered, every pooled engine takes a
    final leak check, and the process exits 0 iff the pool is clean. *)

module Json = Tprof.Json
module Diag = Terra.Diag
module Supervisor = Supervise.Supervisor
module Batch = Supervise.Batch

type config = {
  pool_size : int;
  workers : int;
      (** request-executing domains: run requests execute on a
          {!Tpool.Pool} of this size, at most this many at once
          (responses still come back in request order) *)
  recycle_after : int;  (** wear limit per engine *)
  verify_rollback : bool;  (** fingerprint-check every failed request *)
  checked : bool;  (** TerraSan checked engines *)
  opt_level : int;
  engine_fuel : int option;  (** per-engine session fuel; None = unbounded *)
  mem_bytes : int option;  (** heap size per engine *)
  default_budget : Tenant.budget;
  max_line_bytes : int;  (** request-line cap; longer lines are rejected *)
  log : string -> unit;  (** supervision narration (stderr in the CLI) *)
  cache : Terra.Ccache.t option;
      (** shared persistent compilation cache: every pool engine (and,
          under --workers N, every domain) compiles against one handle.
          Excluded from {!config_digest}: cached compiles are
          byte-identical to cold ones, so replay is unaffected. *)
}

let default_config =
  {
    pool_size = 2;
    workers = 1;
    recycle_after = 64;
    verify_rollback = true;
    checked = false;
    opt_level = 2;
    engine_fuel = None;
    mem_bytes = None;
    default_budget = Tenant.default_budget;
    max_line_bytes = 1 lsl 20;
    log = ignore;
    cache = None;
  }

type t = {
  cfg : config;
  pool : Pool.t;
  tenants : Tenant.table;
  lock : Mutex.t;
      (** guards [served] and serializes every journal access; the pool
          and the tenant table carry their own locks *)
  mutable served : int;  (** run requests answered (incl. rejections) *)
  mutable draining : bool;
  mutable journal : Durable.t option;  (** WAL, when running --durable *)
  mutable replaying : bool;  (** recovery replay in progress *)
  mutable replay_pin : int option * Durable.admission;
      (** slot + admission the WAL pinned for the entry being replayed *)
  mutable crashed : int option;
      (** set when [crash_at] fires, on whichever domain appended; the
          journal is frozen from then on and the request loop re-raises
          {!Durable.Crashed} on the main domain *)
}

let bump_served t =
  Mutex.lock t.lock;
  t.served <- t.served + 1;
  Mutex.unlock t.lock

let make_engine config () =
  Terrastd.create ?mem_bytes:config.mem_bytes ?fuel:config.engine_fuel
    ~checked:config.checked ~opt_level:config.opt_level ~profile:true
    ?ccache:config.cache ()

let create ?(config = default_config) () =
  {
    cfg = config;
    pool = Pool.create ~make:(make_engine config) ~size:config.pool_size
        ~recycle_after:config.recycle_after;
    tenants = Tenant.table ~default_budget:config.default_budget;
    lock = Mutex.create ();
    served = 0;
    draining = false;
    journal = None;
    replaying = false;
    replay_pin = (None, Durable.Unrecorded);
    crashed = None;
  }

(* ------------------------------------------------------------------ *)
(* Run requests *)

let vm_of (eng : Terra.Engine.t) = eng.Terra.Engine.ctx.Terra.Context.vm

(* Arm the request's relative fault injections against the live session:
   ordinals are offsets from the allocations/steps already retired. *)
let arm_faults (eng : Terra.Engine.t) (r : Protocol.run_req) =
  let vm = vm_of eng in
  (match r.Protocol.r_fail_alloc with
  | Some n ->
      let base =
        match vm.Tvm.Vm.faults with
        | Some f -> Tvm.Fault.allocs f
        | None -> 0
      in
      Terra.Engine.inject eng (Tvm.Fault.Fail_alloc (base + n))
  | None -> ());
  match r.Protocol.r_trap_in with
  | Some n ->
      Terra.Engine.inject eng (Tvm.Fault.Trap_at_step (vm.Tvm.Vm.steps + n))
  | None -> ()

(* A run request that cleared admission and source resolution: the
   request-order part of handling is done, only engine time is left. *)
type admitted = {
  ad_tenant : Tenant.t;
  ad_name : string;
  ad_file : string;
  ad_grant : int;
  ad_src : string;
}

type prepared =
  | Rejected of Json.t  (** admission refused; no engine, no settle *)
  | No_source of Json.t * int  (** admitted, but the source read failed *)
  | Admitted of admitted

(* Admission + source resolution.  This is the request-order half of a
   run request: it moves [served] and books the tenant's admission, so
   the request loop runs it on the dispatcher, in request order.  The
   WAL records its outcome and replay imposes it verbatim. *)
let prepare_run (t : t) (r : Protocol.run_req) : prepared =
  bump_served t;
  let tenant_name =
    Option.value r.Protocol.r_tenant ~default:Batch.default_tenant
  in
  let tenant = Tenant.find t.tenants tenant_name in
  let file =
    match (r.Protocol.r_path, r.Protocol.r_src) with
    | Some p, _ -> p
    | None, _ -> "<inline>"
  in
  let decision =
    if t.replaying then
      match snd t.replay_pin with
      | Durable.Granted g -> Ok (Tenant.book_admission tenant ~grant:g)
      | Durable.Rejected -> Error (Tenant.book_rejection tenant)
      | Durable.Unrecorded ->
          Diag.error ~phase:Diag.Run ~code:"recover.bad-wal"
            "journal replays a run request whose begin record pins no \
             admission grant"
    else Tenant.admit tenant ~req_fuel:r.Protocol.r_fuel
  in
  match decision with
  | Error d ->
      t.cfg.log
        (Printf.sprintf "serve: %s rejected for tenant '%s' (%s)" file
           tenant_name d.Diag.code);
      Rejected
        (Protocol.error_json ~status:"rejected" ~tenant:tenant_name ~file d)
  | Ok fuel_grant -> (
      match
        match r.Protocol.r_src with
        | Some src -> Ok src
        | None -> (
            match Batch.read_file file with
            | src -> Ok src
            | exception Sys_error msg ->
                Error (Diag.make ~phase:Diag.Eval ~code:"batch.io" msg))
      with
      | Error d ->
          Tenant.settle tenant ~fuel:0 ~mem_delta:0 ~leaked:0 ~ok:false;
          No_source
            (Protocol.error_json ~tenant:tenant_name ~file d, fuel_grant)
      | Ok src ->
          Admitted
            {
              ad_tenant = tenant;
              ad_name = tenant_name;
              ad_file = file;
              ad_grant = fuel_grant;
              ad_src = src;
            })

(* Slot assignment: round-robin live, WAL-pinned during replay — the
   pin is what lets sequential replay reproduce the engine placement of
   a parallel run. *)
let checkout_for_run (t : t) : Pool.slot =
  if t.replaying then
    match fst t.replay_pin with
    | Some id ->
        if id < 0 || id >= Pool.size t.pool then
          Diag.error ~phase:Diag.Run ~code:"recover.bad-slot"
            "journal pins slot %d but the pool has %d slots" id
            (Pool.size t.pool)
        else Pool.checkout_pinned t.pool id
    | None -> Pool.checkout t.pool
  else Pool.checkout t.pool

(* Engine time for an admitted request.  Returns the response and, when
   the session is journaling, the slot's post-checkin fingerprint for
   the WAL's end record (read under the pool lock, after any recycle,
   before the slot is republished — so a parallel next checkout cannot
   race it). *)
let execute_admitted (t : t) (r : Protocol.run_req) (a : admitted)
    (slot : Pool.slot) : Json.t * string option =
  let tenant = a.ad_tenant in
  let eng = slot.Pool.eng in
  (* fresh observation slice: per-request profile attribution and a
     re-armed leak check *)
  Terra.Engine.reset_scope ~slice:true eng;
  let saved_depth = eng.Terra.Engine.lua_depth in
  (match tenant.Tenant.budget.Tenant.max_call_depth with
  | Some d -> Terra.Engine.set_limits ~max_call_depth:d eng
  | None -> ());
  arm_faults eng r;
  let live_before = Pool.slot_live_bytes slot in
  let config =
    {
      Supervisor.default_config with
      breaker = Some tenant.Tenant.breaker;
      call_fuel = Some a.ad_grant;
      max_retries =
        Option.value r.Protocol.r_retries
          ~default:tenant.Tenant.budget.Tenant.max_retries;
    }
  in
  (* a fingerprint writes no session byte — only the engine's
     page-digest cache, which no fingerprint value depends on — so
     skipping verification during recovery replay cannot diverge the
     replayed state, and the final per-slot tie-out still catches any
     corruption *)
  let o =
    Supervisor.run_script ~config ~key:a.ad_name ~file:a.ad_file
      ~verify_rollback:(t.cfg.verify_rollback && not t.replaying)
      eng a.ad_src
  in
  (* per-request leak check (fresh blocks only) *)
  let leaks = Terra.Engine.leak_report eng in
  let leaked_bytes = List.fold_left (fun a (_, s) -> a + s) 0 leaks in
  Tenant.settle tenant ~fuel:o.Supervisor.fuel_used
    ~mem_delta:(Pool.slot_live_bytes slot - live_before)
    ~leaked:leaked_bytes ~ok:(Result.is_ok o.Supervisor.result);
  let anomaly =
    match o.Supervisor.rollback with
    | Supervisor.Mismatch _ -> Some Pool.Fingerprint
    | _ -> if leaks <> [] then Some Pool.Leak else None
  in
  (if anomaly <> None then
     t.cfg.log
       (Printf.sprintf "serve: engine %d recycled after %s (%s)" slot.Pool.id
          a.ad_file
          (if anomaly = Some Pool.Fingerprint then "fingerprint mismatch"
           else "leak")));
  (* the engine object survives in [eng] even if the slot is recycled;
     restore its budgets only when it stays pooled *)
  let fp_end = ref None in
  let after =
    if t.journal <> None && not t.replaying then
      Some
        (fun (s : Pool.slot) ->
          fp_end := Some (Terra.Engine.fingerprint s.Pool.eng))
    else None
  in
  Pool.checkin ?after t.pool slot ~anomaly;
  if slot.Pool.eng == eng then
    Terra.Engine.set_limits ~max_call_depth:saved_depth eng;
  let resp =
    Protocol.entry_json
      (Batch.entry_of_outcome ~file:a.ad_file ~tenant:a.ad_name o)
      ~extra:
        [
          ("engine", Json.Int slot.Pool.id);
          ( "exit",
            Json.Int
              (Supervisor.exit_code ~rollback:o.Supervisor.rollback
                 ~leaked:(t.cfg.checked && leaks <> [])
                 o.Supervisor.result) );
          ( "rollback",
            match o.Supervisor.rollback with
            | Supervisor.Verified _ -> Json.Str "verified"
            | Supervisor.Mismatch _ -> Json.Str "failed"
            | Supervisor.Unverified -> Json.Null );
          ("leaked_bytes", Json.Int leaked_bytes);
          ( "leak",
            match Terra.Engine.leak_diag eng with
            | Some d when leaks <> [] -> Json.Str d.Diag.message
            | _ -> Json.Null );
          ("recycled", Json.Bool (anomaly <> None));
        ]
  in
  (resp, !fp_end)

(* One run request end to end, on the calling domain.  [begun] fires
   once the admission decision and any slot assignment are known,
   before engine time — it is the WAL's write-ahead hook. *)
let handle_run ?(begun = fun ~slot:_ ~adm:_ -> ()) (t : t)
    (r : Protocol.run_req) : Json.t * string option =
  match prepare_run t r with
  | Rejected resp ->
      begun ~slot:None ~adm:Durable.Rejected;
      (resp, None)
  | No_source (resp, grant) ->
      begun ~slot:None ~adm:(Durable.Granted grant);
      (resp, None)
  | Admitted a ->
      let slot = checkout_for_run t in
      begun ~slot:(Some slot.Pool.id) ~adm:(Durable.Granted a.ad_grant);
      execute_admitted t r a slot

(* ------------------------------------------------------------------ *)
(* Introspection *)

let status_json (t : t) =
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "status");
      ("served", Json.Int t.served);
      ("draining", Json.Bool t.draining);
      ("checked", Json.Bool t.cfg.checked);
      ("opt_level", Json.Int t.cfg.opt_level);
      ("verify_rollback", Json.Bool t.cfg.verify_rollback);
      ("live_bytes", Json.Int (Pool.live_bytes t.pool));
      ("pool", Pool.status_json t.pool);
      ( "tenants",
        Json.List (List.map Tenant.status_json (Tenant.all t.tenants)) );
      ( "durable",
        match t.journal with
        | Some j -> Durable.status_json j
        | None -> Json.Null );
      ( "ccache",
        match t.cfg.cache with
        | None -> Json.Null
        | Some cc ->
            let c = Terra.Ccache.counts cc in
            Json.Obj
              [
                ("hits", Json.Int c.Terra.Ccache.c_hits);
                ("misses", Json.Int c.Terra.Ccache.c_misses);
                ("stores", Json.Int c.Terra.Ccache.c_stores);
                ("bad_entries", Json.Int c.Terra.Ccache.c_bad_entries);
              ] );
    ]

let profile_json (t : t) =
  let engines =
    Array.to_list
      (Array.map
         (fun (s : Pool.slot) ->
           Json.Obj
             [
               ("id", Json.Int s.Pool.id);
               ("served", Json.Int s.Pool.served);
               ( "profile",
                 Tprof.Report.to_json_value (Terra.Engine.profile s.Pool.eng)
               );
             ])
         t.pool.Pool.slots)
  in
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "profile");
      ("engines", Json.List engines);
    ]

let breakers_json (t : t) =
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "breakers");
      ( "tenants",
        Json.List (List.map Tenant.breakers_json (Tenant.all t.tenants)) );
    ]

(* ------------------------------------------------------------------ *)
(* Durability *)

(** The marshaled checkpoint payload: every piece of server state a
    recovered process needs beyond what the config rebuilds. *)
type persisted = {
  p_config : string;  (** digest of the behavior-relevant config *)
  p_served : int;
  p_pool : Pool.meta;
  p_tenants : Tenant.snapshot list;  (** first-seen order *)
  p_engines : Terra.Engine.snapshot array;  (** one per slot, in order *)
}

(* Replay is only exact under the same knobs (engine sizing, budgets,
   breaker thresholds, pool shape), so the checkpoint embeds a digest
   of everything behavior-relevant and recovery refuses a mismatch. *)
let config_digest (c : config) =
  let b = c.default_budget in
  let opt = function Some n -> string_of_int n | None -> "-" in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "pool=%d;recycle=%d;verify=%b;checked=%b;opt=%d;fuel=%s;mem=%s;\
           budget=%d,%d,%d,%s,%d,%d;cb=%d,%d;line=%d"
          c.pool_size c.recycle_after c.verify_rollback c.checked c.opt_level
          (opt c.engine_fuel) (opt c.mem_bytes) b.Tenant.fuel_per_request
          b.Tenant.fuel_total b.Tenant.mem_bytes
          (opt b.Tenant.max_call_depth)
          b.Tenant.max_inflight b.Tenant.max_retries
          b.Tenant.breaker.Supervise.Policy.cb_threshold
          b.Tenant.breaker.Supervise.Policy.cb_cooldown c.max_line_bytes))

let persist (t : t) : string =
  Marshal.to_string
    {
      p_config = config_digest t.cfg;
      p_served = t.served;
      p_pool = Pool.meta t.pool;
      p_tenants = List.map Tenant.snapshot (Tenant.all t.tenants);
      p_engines =
        Array.map
          (fun (s : Pool.slot) -> Terra.Engine.snap s.Pool.eng)
          t.pool.Pool.slots;
    }
    []

let outcome_of (resp : Json.t) =
  Option.value (Json.to_string_opt (Json.member "status" resp)) ~default:"error"

let slot_of (resp : Json.t) = Json.to_int_opt (Json.member "engine" resp)

(* Every journal access runs under [t.lock], from whichever domain
   makes it.  A simulated crash ([crash_at]) is parked in [t.crashed]
   and freezes the journal: every later access re-raises it, so nothing
   more reaches the disk — exactly what a kill -9 at that event leaves. *)
let with_journal t ~none f =
  match t.journal with
  | Some j when not t.replaying ->
      Mutex.protect t.lock (fun () ->
          match t.crashed with
          | Some n -> raise (Durable.Crashed n)
          | None -> (
              try f j
              with Durable.Crashed n as e ->
                t.crashed <- Some n;
                raise e))
  | _ -> none

let journal_begin t input ~slot ~adm =
  with_journal t ~none:0 (fun j -> Durable.begin_request ?slot ~adm j input)

(* Commit and, at the barrier interval, checkpoint: the one-request-at-
   a-time composition {!handle} uses, where between requests is always
   a consistent point. *)
let journal_end t ~seq ~(resp : Json.t) ~fp =
  with_journal t ~none:() (fun j ->
      Durable.end_request j ~seq ~outcome:(outcome_of resp)
        ~slot:(slot_of resp) ~fp
        ~state:(fun () -> persist t))

(* ------------------------------------------------------------------ *)
(* The request loop *)

(** Final drain: leak-check every pooled engine.  Returns the drain
    response and the process exit code (0 iff the pool is clean). *)
let drain (t : t) ~reason : Json.t * int =
  t.draining <- true;
  let bad = Pool.final_leak_check t.pool in
  let clean = bad = [] in
  ( Json.Obj
      [
        ("schema", Json.Str "terra-serve-1");
        ("op", Json.Str "shutdown");
        ("reason", Json.Str reason);
        ("served", Json.Int t.served);
        ("status", Json.Str (if clean then "clean" else "leaky"));
        ( "leaks",
          Json.List
            (List.map
               (fun (id, d) ->
                 Json.Obj
                   [
                     ("engine", Json.Int id);
                     ("message", Json.Str d.Diag.message);
                   ])
               bad) );
      ],
    if clean then 0 else 2 )

(** Handle one request line.  [None] for blank/comment lines;
    [Some (resp, `Continue | `Shutdown)] otherwise.  Run requests and
    parse-error lines mutate server state, so both go through the WAL
    (begin before execution, commit after); introspection ops do not. *)
let handle (t : t) (line : string) :
    (Json.t * [ `Continue | `Shutdown ]) option =
  match Protocol.parse line with
  | Ok None -> None
  | Ok (Some Protocol.Status) -> Some (status_json t, `Continue)
  | Ok (Some Protocol.Profile) -> Some (profile_json t, `Continue)
  | Ok (Some Protocol.Breakers) -> Some (breakers_json t, `Continue)
  | Ok (Some Protocol.Shutdown) -> Some (Json.Null, `Shutdown)
  | (Error _ | Ok (Some (Protocol.Run _))) as parsed ->
      let seq = ref 0 in
      let begun ~slot ~adm =
        seq := journal_begin t (Durable.Line line) ~slot ~adm
      in
      let resp, fp =
        match parsed with
        | Ok (Some (Protocol.Run r)) -> handle_run ~begun t r
        | Error d ->
            begun ~slot:None ~adm:Durable.Unrecorded;
            bump_served t;
            (Protocol.error_json d, None)
        | Ok _ -> assert false
      in
      journal_end t ~seq:!seq ~resp ~fp;
      Some (resp, `Continue)

let oversize_resp (t : t) (len : int) : Json.t =
  Protocol.error_json
    (Protocol.bad_request "request line of %d bytes exceeds the %d-byte cap"
       len t.cfg.max_line_bytes)

(** An over-long request line was drained without buffering: reject it
    (journaled — the rejection moves [served]). *)
let handle_oversize (t : t) (len : int) : Json.t =
  let seq =
    journal_begin t (Durable.Oversize len) ~slot:None ~adm:Durable.Unrecorded
  in
  bump_served t;
  let resp = oversize_resp t len in
  journal_end t ~seq ~resp ~fp:None;
  resp

(* ------------------------------------------------------------------ *)
(* Durability: session setup and recovery *)

(* Durable parallel service needs same-tenant requests serialized in
   request order (max_inflight = 1, the default): tenant counter sums
   are order-independent, but the per-tenant breaker's logical clock is
   not — letting one tenant's requests race would make sequential
   replay diverge from the state that was checkpointed. *)
let durable_workers_guard (config : config) : (unit, Diag.t) result =
  if config.workers > 1 && config.default_budget.Tenant.max_inflight <> 1 then
    Error
      (Diag.make ~phase:Diag.Run ~code:"durable.tenant-inflight"
         (Printf.sprintf
            "--durable with --workers %d requires --tenant-inflight 1 (got \
             %d): per-tenant order must be deterministic for replay"
            config.workers config.default_budget.Tenant.max_inflight))
  else Ok ()

(** Turn on the write-ahead journal for a fresh server. *)
let enable_durability (t : t) ~dir ?interval ?crash_at ?on_event () :
    (unit, Diag.t) result =
  match durable_workers_guard t.cfg with
  | Error d -> Error d
  | Ok () -> (
      let cfg = Durable.config ?interval ?crash_at ?on_event dir in
      match Durable.create cfg ~state:(fun () -> persist t) with
      | Ok j ->
          t.journal <- Some j;
          Ok ()
      | Error d -> Error d)

(** Recover a durable session from [dir]: load the newest valid
    checkpoint, rebuild the pool and tenant table, replay the committed
    WAL suffix (responses discarded — they were already delivered), and
    verify every slot's fingerprint against the one recorded at commit
    time.  On success the returned server has a live journal again and
    the report describes what recovery did (including any torn tail it
    degraded around). *)
let recover ?(config = default_config) ~dir ?interval ?crash_at ?on_event ()
    : (t * Json.t, Diag.t) result =
  match durable_workers_guard config with
  | Error d -> Error d
  | Ok () -> (
  match Durable.recover_scan ~dir with
  | Error d -> Error d
  | Ok rc -> (
      match (Marshal.from_string rc.Durable.rc_state 0 : persisted) with
      | exception _ ->
          Error
            (Diag.make ~phase:Diag.Run ~code:"recover.bad-checkpoint"
               "checkpoint payload does not parse")
      | p ->
          if not (String.equal p.p_config (config_digest config)) then
            Error
              (Diag.make ~phase:Diag.Run ~code:"recover.config-mismatch"
                 "server configuration differs from the checkpointed \
                  session; recovery would not replay exactly")
          else begin
            match
              let make = make_engine config in
              let engines =
                Array.map
                  (fun snap ->
                    let e = make () in
                    Terra.Engine.restore_snap e snap;
                    e)
                  p.p_engines
              in
              let t =
                {
                  cfg = config;
                  pool =
                    Pool.restore ~make ~recycle_after:config.recycle_after
                      p.p_pool engines;
                  tenants =
                    Tenant.table ~default_budget:config.default_budget;
                  lock = Mutex.create ();
                  served = p.p_served;
                  draining = false;
                  journal = None;
                  replaying = true;
                  replay_pin = (None, Durable.Unrecorded);
                  crashed = None;
                }
              in
              List.iter (Tenant.restore t.tenants) p.p_tenants;
              (* deterministic replay of the committed suffix:
                 sequential even when the journal came from a parallel
                 run — each entry re-executes on the slot its begin
                 record pinned, under the admission it recorded *)
              List.iter
                (fun (e : Durable.committed_entry) ->
                  t.replay_pin <- (e.Durable.ce_pin, e.Durable.ce_adm);
                  match e.Durable.ce_input with
                  | Durable.Line l -> ignore (handle t l)
                  | Durable.Oversize n -> ignore (handle_oversize t n))
                rc.Durable.rc_entries;
              t.replay_pin <- (None, Durable.Unrecorded);
              t.replaying <- false;
              (* fingerprint tie-out: for every slot, the recovered
                 engine must match the last fingerprint committed for
                 it (or be untouched since the checkpoint) *)
              let expected = Array.make (Pool.size t.pool) None in
              List.iter
                (fun (e : Durable.committed_entry) ->
                  match (e.Durable.ce_slot, e.Durable.ce_fp) with
                  | Some id, Some fp when id >= 0 && id < Array.length expected
                    ->
                      expected.(id) <- Some fp
                  | _ -> ())
                rc.Durable.rc_entries;
              Array.iteri
                (fun id exp ->
                  match exp with
                  | Some fp ->
                      let now =
                        Terra.Engine.fingerprint t.pool.Pool.slots.(id).Pool.eng
                      in
                      if not (String.equal now fp) then
                        Diag.error ~phase:Diag.Run
                          ~code:"recover.fingerprint-mismatch"
                          "engine %d replayed to fingerprint %s but %s was \
                           committed"
                          id now fp
                  | None -> ())
                expected;
              let j =
                Durable.resume
                  (Durable.config ?interval ?crash_at ?on_event dir)
                  ~rc ~state:(fun () -> persist t)
              in
              t.journal <- Some j;
              let report =
                Json.Obj
                  [
                    ("schema", Json.Str "terra-serve-1");
                    ("op", Json.Str "recover");
                    ("barrier", Json.Int rc.Durable.rc_barrier);
                    ( "replayed",
                      Json.Int (List.length rc.Durable.rc_entries) );
                    ("seq", Json.Int (Option.get t.journal).Durable.seq);
                    ("discarded", Json.Int rc.Durable.rc_discarded);
                    ( "torn",
                      match rc.Durable.rc_torn with
                      | Some tt -> Durable.torn_json tt
                      | None -> Json.Null );
                    ( "skipped_checkpoints",
                      Json.List
                        (List.map
                           (fun (f, why) ->
                             Json.Obj
                               [
                                 ("file", Json.Str f);
                                 ("reason", Json.Str why);
                               ])
                           rc.Durable.rc_skipped) );
                  ]
              in
              (t, report)
            with
            | result -> Ok result
            | exception Diag.Error d -> Error d
          end))

(* ------------------------------------------------------------------ *)
(* The request line reader *)

(** Read one newline-terminated request, bounding memory: once a line
    exceeds [max_bytes] the rest is drained unbuffered and the line is
    reported as oversized (its true length attached). *)
let read_request ic ~max_bytes : [ `Line of string | `Oversize of int | `Eof ]
    =
  let buf = Buffer.create 256 in
  let rec go count =
    match input_char ic with
    | exception End_of_file ->
        if count = 0 then `Eof
        else if count > max_bytes then `Oversize count
        else `Line (Buffer.contents buf)
    | '\n' -> if count > max_bytes then `Oversize count else `Line (Buffer.contents buf)
    | c ->
        if count < max_bytes then Buffer.add_char buf c;
        go (count + 1)
  in
  go 0

(* SIGINT and SIGTERM, which terra_serve turns into [Sys.Break], stay
   blocked on the dispatcher except inside [interruptible]: a signal
   that arrives while the dispatcher is working stays pending until its
   next blocking point, so a [Sys.Break] never lands halfway through
   admitting, journaling or dispatching a request. *)
let break_signals = [ Sys.sigint; Sys.sigterm ]

let sigmask how =
  try Unix.sigprocmask how break_signals with Invalid_argument _ -> []

let interruptible f =
  Fun.protect
    ~finally:(fun () -> ignore (sigmask Unix.SIG_BLOCK))
    (fun () ->
      ignore (sigmask Unix.SIG_UNBLOCK);
      f ())

(** Serve line-delimited requests from [ic] to [oc] until shutdown, end
    of input, or [Sys.Break] (SIGINT/SIGTERM routed through
    [Sys.catch_break]-style handlers); every exit path drains
    gracefully.  Returns the process exit code.

    One loop for every worker count.  The main domain is the
    dispatcher: it reads and classifies lines and does, in request
    order, everything replay must reproduce — admission, source
    resolution, slot checkout, the WAL [begin] record — then hands each
    run to a {!Tpool.Pool} of [workers] domains (at most one per pool
    slot).  Admission is a deterministic rule: a state-mutating line
    waits until fewer than that many runs are in flight, and a run also
    waits until its tenant has fewer than [max_inflight] in flight.  It
    waits; it is never rejected for arriving early.  With one worker
    this is one-request-at-a-time service: the same responses and the
    same durability events, in the same order, as {!handle} line by
    line.

    Finished responses wait in a reorder buffer.  Whichever domain
    completes the next response in sequence flushes the buffer: it
    appends each response's WAL [end] record, so commit order is
    response order, then writes the line.  After every [interval]
    mutating dispatches the dispatcher quiesces and checkpoints, so a
    checkpoint captures a consistent multi-engine state with no request
    half-done and no begin/end pair split across WAL generations.

    Every blocking point — reading input, the admission wait, quiesce —
    is on the main domain.  Pool workers block SIGINT/SIGTERM and the
    dispatcher unblocks them only at those points, so a [Sys.Break]
    lands at one of them and becomes the graceful drain: runs already
    dispatched finish and are answered first. *)
let run_channels (t : t) (ic : in_channel) (oc : out_channel) : int =
  (* only in-flight runs hold slots, so with at most one worker per
     slot the dispatcher's checkout never blocks *)
  let bound = min t.cfg.workers (Pool.size t.pool) in
  let m = Mutex.create () in
  let changed = Condition.create () in
  let inflight = ref 0 in
  (* response number -> payload, the WAL seq of its begin record (0:
     not journaled) and its post-checkin fingerprint; guarded by [m]
     like [inflight] *)
  let buffer : (int, Json.t * int * string option) Hashtbl.t =
    Hashtbl.create 16
  in
  let next_in = ref 0 and next_out = ref 0 in
  let rec flush_ready () =
    match Hashtbl.find_opt buffer !next_out with
    | None -> ()
    | Some (resp, seq, fp) ->
        Hashtbl.remove buffer !next_out;
        incr next_out;
        (* a crash here is parked in [t.crashed]; the dispatcher
           re-raises it *)
        (if seq > 0 then
           try
             with_journal t ~none:() (fun j ->
                 Durable.commit_request j ~seq ~outcome:(outcome_of resp)
                   ~slot:(slot_of resp) ~fp)
           with Durable.Crashed _ -> ());
        if t.crashed = None then begin
          output_string oc (Json.to_string resp);
          output_char oc '\n';
          flush oc
        end;
        flush_ready ()
  in
  let deliver ?(ran = false) ?(seq = 0) ?fp i resp =
    Mutex.protect m (fun () ->
        Fun.protect
          ~finally:(fun () ->
            if ran then begin
              decr inflight;
              Condition.broadcast changed
            end)
          (fun () ->
            Hashtbl.replace buffer i (resp, seq, fp);
            flush_ready ()))
  in
  let wait_until ready =
    interruptible (fun () ->
        Mutex.protect m (fun () ->
            while t.crashed = None && not (ready ()) do
              Condition.wait changed m
            done));
    Option.iter (fun n -> raise (Durable.Crashed n)) t.crashed
  in
  (* when this returns every dispatched request has executed, committed
     and been answered, and no engine is running *)
  let quiesce () = wait_until (fun () -> !inflight = 0) in
  let has_worker () = !inflight < bound in
  let next () =
    let i = !next_in in
    incr next_in;
    i
  in
  (* After a state-mutating dispatch: at the interval boundary, quiesce
     (which waits for the just-dispatched request too) and checkpoint,
     so the barrier lands on the same committed seq as under {!handle}. *)
  let mutated () =
    match t.journal with
    | Some j when Durable.barrier_due j ->
        quiesce ();
        with_journal t ~none:() (fun j ->
            Durable.write_checkpoint j ~state:(fun () -> persist t))
    | _ -> ()
  in
  (* a state-mutating line answered without engine time *)
  let answer input ~adm resp =
    let i = next () in
    let seq = journal_begin t input ~slot:None ~adm in
    deliver ~seq i resp;
    mutated ()
  in
  (* an unparsable or oversized line: mutating, since it moves [served] *)
  let refuse input resp =
    wait_until has_worker;
    bump_served t;
    answer input ~adm:Durable.Unrecorded resp
  in
  let dispatch_run pool line (r : Protocol.run_req) =
    let tenant =
      Tenant.find t.tenants
        (Option.value r.Protocol.r_tenant ~default:Batch.default_tenant)
    in
    wait_until (fun () -> has_worker () && not (Tenant.at_capacity tenant));
    match prepare_run t r with
    | Rejected resp -> answer (Durable.Line line) ~adm:Durable.Rejected resp
    | No_source (resp, grant) ->
        answer (Durable.Line line) ~adm:(Durable.Granted grant) resp
    | Admitted a ->
        let i = next () in
        let slot = checkout_for_run t in
        let seq =
          journal_begin t (Durable.Line line) ~slot:(Some slot.Pool.id)
            ~adm:(Durable.Granted a.ad_grant)
        in
        Mutex.protect m (fun () -> incr inflight);
        Tpool.Pool.run pool (fun _ ->
            let resp, fp =
              try execute_admitted t r a slot
              with e ->
                (* the slot and the tenant's in-flight count must come
                   back even on an internal error; the engine is no
                   longer trusted *)
                Pool.checkin t.pool slot ~anomaly:(Some Pool.Fingerprint);
                Tenant.settle a.ad_tenant ~fuel:0 ~mem_delta:0 ~leaked:0
                  ~ok:false;
                ( Protocol.error_json
                    (Diag.make ~phase:Diag.Run ~code:"serve.internal"
                       (Printexc.to_string e)),
                  None )
            in
            deliver ~ran:true ~seq ?fp i resp);
        mutated ()
  in
  let rec loop pool =
    match
      interruptible (fun () ->
          read_request ic ~max_bytes:t.cfg.max_line_bytes)
    with
    | `Eof -> "eof"
    | `Oversize len ->
        refuse (Durable.Oversize len) (oversize_resp t len);
        loop pool
    | `Line line -> (
        let introspect f =
          quiesce ();
          deliver (next ()) (f t);
          loop pool
        in
        match Protocol.parse line with
        | Ok None -> loop pool
        | Ok (Some Protocol.Status) -> introspect status_json
        | Ok (Some Protocol.Profile) -> introspect profile_json
        | Ok (Some Protocol.Breakers) -> introspect breakers_json
        | Ok (Some Protocol.Shutdown) -> "shutdown"
        | Ok (Some (Protocol.Run r)) ->
            dispatch_run pool line r;
            loop pool
        | Error d ->
            refuse (Durable.Line line)
              (Protocol.error_json d);
            loop pool)
  in
  let mask = sigmask Unix.SIG_BLOCK in
  let serve () =
    let reason =
      Tpool.Pool.with_pool ~domains:bound (fun pool ->
          let reason = try loop pool with Sys.Break -> "signal" in
          (* a second signal does not cut the drain short *)
          let rec settle () = try quiesce () with Sys.Break -> settle () in
          settle ();
          reason)
    in
    let resp, code = drain t ~reason in
    deliver (next ()) resp;
    Option.iter Durable.close t.journal;
    code
  in
  (* a signal that arrives once the drain is under way is moot *)
  let restore () =
    try ignore (Unix.sigprocmask Unix.SIG_SETMASK mask) with
    | Invalid_argument _ | Sys.Break -> ()
  in
  Fun.protect ~finally:restore serve
