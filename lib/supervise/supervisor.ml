(** The supervisor: runs transactional Terra calls and scripts under a
    {!Policy} — per-call fuel watchdog, bounded retry with deterministic
    backoff for transient faults, per-function circuit breaking, and
    graceful degradation to an unoptimized build.

    Every attempt executes inside a VM transaction
    ({!Terra.Engine.call_transactional} / {!Terra.Engine.run_transactional}),
    so a failed attempt leaves the session byte-identical and a retry
    starts from exactly the state the first attempt saw.  One-shot
    injected faults are deliberately *not* restored by rollback, which is
    what makes them transient: the retry observes them as already
    consumed and succeeds. *)

module V = Mlua.Value
module Diag = Terra.Diag

type config = {
  max_retries : int;  (** retries after the first attempt *)
  backoff : Policy.backoff;
  retryable : Diag.t -> bool;  (** which diagnostics are transient *)
  breaker : Policy.breaker option;  (** shared across calls when present *)
  call_fuel : int option;  (** per-attempt fuel budget (watchdog) *)
  opt_fallback : bool;  (** retry once at opt 0 on a runtime fault *)
}

let default_config =
  {
    max_retries = 2;
    backoff = Policy.default_backoff;
    retryable = Policy.default_retryable;
    breaker = None;
    call_fuel = None;
    opt_fallback = true;
  }

(** What [run_script ~verify_rollback:true] found after a failed run:
    the session fingerprint it took before the run, and after the
    rollback. *)
type rollback =
  | Unverified  (** verification off, or the run succeeded *)
  | Verified of string  (** the fingerprint the rollback restored *)
  | Mismatch of string * string  (** before, after: rollback is broken *)

type outcome = {
  result : (V.t list, Diag.t) result;
  attempts : int;  (** total attempts executed (>= 1 unless rejected) *)
  retries : int;  (** transient-fault retries among those attempts *)
  fuel_used : int;  (** VM fuel consumed across all attempts *)
  backoff_total : int;  (** virtual ticks spent backing off *)
  fallback : bool;  (** did the opt-0 degradation path run? *)
  divergence : Diag.t option;
      (** [supervise.opt-divergence] when opt 0 succeeded where the
          optimized build faulted *)
  output : string;  (** captured output of the last attempt (scripts) *)
  rollback : rollback;
}

(** Where supervision events (retries, breaker transitions, fallbacks)
    are narrated; defaults to silent. *)
let log_sink : (string -> unit) ref = ref (fun _ -> ())

let logf fmt = Printf.ksprintf (fun s -> !log_sink s) fmt

(* Per-attempt fuel watchdog: bound the attempt to [budget] fuel (capped
   at whatever the engine has left), then charge only what the attempt
   actually used against the engine's own budget.  A blown budget
   surfaces as an ordinary [trap.fuel] diagnostic, which the transaction
   rolls back like any other fault. *)
let with_call_fuel (vm : Tvm.Vm.t) budget f =
  let saved_fuel = vm.Tvm.Vm.fuel and saved_limit = vm.Tvm.Vm.fuel_limit in
  let b = max 1 (min budget saved_fuel) in
  let steps0 = vm.Tvm.Vm.steps in
  vm.Tvm.Vm.fuel <- b;
  vm.Tvm.Vm.fuel_limit <- b;
  Fun.protect
    ~finally:(fun () ->
      (* charge by retired instructions — the same counter Tprof and
         --report-fuel read — so the watchdog cannot drift from them *)
      let used = vm.Tvm.Vm.steps - steps0 in
      vm.Tvm.Vm.fuel <- saved_fuel - used;
      vm.Tvm.Vm.fuel_limit <- saved_limit)
    f

(* Emit a breaker-transition trace event when [f] changes [key]'s state. *)
let with_breaker_event (vm : Tvm.Vm.t) breaker key f =
  match breaker with
  | None -> f ()
  | Some b ->
      let before = Policy.state_name (Policy.breaker_state b key) in
      let r = f () in
      let after = Policy.state_name (Policy.breaker_state b key) in
      let probe = vm.Tvm.Vm.probe in
      if after <> before && probe.Tprof.Probe.active then
        Tprof.Probe.breaker probe ~key ~state:after;
      r

let opt_divergence key =
  Diag.make ~phase:Diag.Run ~code:"supervise.opt-divergence"
    (Printf.sprintf
       "'%s' faulted when built at opt>=1 but succeeded at opt 0 after \
        rollback; the optimized build or its machine mapping is suspect"
       key)

(* The shared supervision loop.  [attempt] runs one transactional
   attempt and returns its output plus result; [degrade] (if any)
   switches the engine to an unoptimized build for the fallback retry. *)
let supervise ~(config : config) ~key ~(vm : Tvm.Vm.t)
    ~(attempt : unit -> string * (V.t list, Diag.t) result)
    ~(degrade : (unit -> unit) option) () : outcome =
  let rejected remaining =
    {
      result = Error (Policy.open_diag key remaining);
      attempts = 0;
      retries = 0;
      fuel_used = 0;
      backoff_total = 0;
      fallback = false;
      divergence = None;
      output = "";
      rollback = Unverified;
    }
  in
  let admit =
    match config.breaker with
    | None -> `Allow
    | Some b -> with_breaker_event vm config.breaker key (fun () -> Policy.admit b key)
  in
  match admit with
  | `Reject remaining ->
      logf "supervise: %s rejected (cb.open, %d ticks remaining)" key
        remaining;
      rejected remaining
  | `Allow ->
      let steps_before = vm.Tvm.Vm.steps in
      let attempts = ref 0 in
      let retries = ref 0 in
      let backoff_total = ref 0 in
      let fallback = ref false in
      let divergence = ref None in
      let run_attempt () =
        incr attempts;
        match config.call_fuel with
        | Some budget -> with_call_fuel vm budget attempt
        | None -> attempt ()
      in
      let rec go () =
        match run_attempt () with
        | out, Ok vs ->
            if !fallback then divergence := Some (opt_divergence key);
            (out, Ok vs)
        | out, Error d ->
            if
              config.retryable d
              && (not !fallback)
              && !retries < config.max_retries
            then begin
              incr retries;
              let pause =
                Policy.delay config.backoff ~seed:key ~attempt:!retries
              in
              backoff_total := !backoff_total + pause;
              logf "supervise: %s failed (%s); retry %d/%d after %d ticks"
                key d.Diag.code !retries config.max_retries pause;
              go ()
            end
            else if
              config.opt_fallback && (not !fallback) && degrade <> None
              && Diag.is_runtime_fault d
            then begin
              fallback := true;
              (match degrade with Some f -> f () | None -> ());
              logf "supervise: %s failed (%s); degrading to opt 0" key
                d.Diag.code;
              go ()
            end
            else (out, Error d)
      in
      let output, result = go () in
      (match config.breaker with
      | Some b ->
          with_breaker_event vm config.breaker key (fun () ->
              Policy.record b key ~ok:(Result.is_ok result))
      | None -> ());
      {
        result;
        attempts = !attempts;
        retries = !retries;
        fuel_used = vm.Tvm.Vm.steps - steps_before;
        backoff_total = !backoff_total;
        fallback = !fallback;
        divergence = !divergence;
        output;
        rollback = Unverified;
      }

let engine_vm (eng : Terra.Engine.t) =
  eng.Terra.Engine.ctx.Terra.Context.vm

(** Supervised transactional call of Terra function [name].  The
    degradation path recompiles [name] (and its transitive callees) at
    opt 0 before the final retry; the rebuilt function stays at opt 0. *)
let call ?(config = default_config) (eng : Terra.Engine.t) name args :
    outcome =
  let degrade =
    if Terra.Engine.opt_level eng >= 1 then
      Some (fun () -> Terra.Engine.recompile_at eng ~opt_level:0 name)
    else None
  in
  supervise ~config ~key:name ~vm:(engine_vm eng)
    ~attempt:(fun () ->
      ("", Terra.Engine.call_transactional eng name args))
    ~degrade ()

(** Supervised transactional script run.  Each attempt gets a fresh Lua
    scope (Lua globals are not journaled by the VM transaction, and
    re-evaluating [terra f ...] in the old scope would trip the
    immutable-definition check) while the Terra session — heap,
    allocator, compiled code — carries over.  The degradation path
    re-runs the whole script with the context pinned at opt 0; the
    engine's own opt level is restored afterwards.

    [?key] overrides the breaker/backoff identity (default: the file
    name).  The serving layer passes the tenant name, so all of a
    tenant's requests share one circuit regardless of which scripts they
    run.

    With [~verify_rollback:true] the session is fingerprinted before the
    run (statics up to the current mark: heap bytes, allocator
    bookkeeping, shadow map), and a failed run must leave the same
    fingerprint; [rollback] carries the verdict. *)
let run_script ?(config = default_config) ?key ?file
    ?(verify_rollback = false) (eng : Terra.Engine.t) src : outcome =
  let mark = Terra.Engine.statics_mark eng in
  let fingerprint () = Terra.Engine.fingerprint ~statics_upto:mark eng in
  let before = if verify_rollback then Some (fingerprint ()) else None in
  let ctx = eng.Terra.Engine.ctx in
  let saved_opt = ctx.Terra.Context.opt_level in
  let degrade =
    if saved_opt >= 1 then
      Some (fun () -> ctx.Terra.Context.opt_level <- 0)
    else None
  in
  let key =
    match (key, file) with
    | Some k, _ -> k
    | None, Some f -> f
    | None, None -> "<script>"
  in
  let o =
    Fun.protect
      ~finally:(fun () -> ctx.Terra.Context.opt_level <- saved_opt)
      (fun () ->
        supervise ~config ~key ~vm:(engine_vm eng)
          ~attempt:(fun () ->
            Terra.Engine.reset_scope eng;
            Terra.Engine.run_capture_transactional ?file eng src)
          ~degrade ())
  in
  match (before, o.result) with
  | Some fp, Error _ ->
      let after = fingerprint () in
      {
        o with
        rollback =
          (if String.equal fp after then Verified fp else Mismatch (fp, after));
      }
  | _ -> o

(** The exit code a one-shot [terra_run] reports for a run: 0 success,
    1 diagnostic, 2 runtime fault (or [leaked], a leak that counts under
    checked execution), 3 a rollback that did not restore the session. *)
let exit_code ?(rollback = Unverified) ~leaked
    (result : (_, Diag.t) result) : int =
  match (rollback, result) with
  | Mismatch _, _ -> 3
  | _, Ok _ -> if leaked then 2 else 0
  | _, Error d -> if Diag.is_runtime_fault d then 2 else 1
