(* The supervised execution layer: transactional Terra calls
   (snapshot/rollback with fingerprint verification), retry with
   deterministic backoff, circuit breakers, per-call fuel watchdogs,
   opt-level fallback, the batch front end, and the global-state
   regressions (per-allocator jitter, interpreter knob save/restore)
   that make several live engines safe. *)

module V = Mlua.Value
module Mem = Tvm.Mem
module Alloc = Tvm.Alloc
module Fault = Tvm.Fault
module Policy = Supervise.Policy
module Supervisor = Supervise.Supervisor
module Batch = Supervise.Batch
open Terra

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let quick = Harness.quick
let engine = Harness.engine
let run_ok e src = Harness.run_ok e src
let contains_sub = Harness.contains_sub
let vm_of e = e.Engine.ctx.Context.vm

(* ------------------------------------------------------------------ *)
(* Policy: backoff *)

let backoff_tests =
  [
    quick "schedule is exponential up to the cap (no jitter)" (fun () ->
        let b =
          { Policy.bo_base = 10; bo_factor = 2; bo_cap = 100; bo_jitter = 0 }
        in
        let sched =
          List.map
            (fun a -> Policy.delay b ~seed:"f" ~attempt:a)
            [ 1; 2; 3; 4; 5; 6 ]
        in
        Alcotest.(check (list int)) "schedule" [ 10; 20; 40; 80; 100; 100 ]
          sched);
    quick "jitter is deterministic and bounded" (fun () ->
        let b = Policy.default_backoff in
        let d1 = Policy.delay b ~seed:"f" ~attempt:1 in
        let d2 = Policy.delay b ~seed:"f" ~attempt:1 in
        checki "same inputs, same delay" d1 d2;
        checkb "within jitter bound" true
          (d1 >= b.Policy.bo_base
          && d1 < b.Policy.bo_base + b.Policy.bo_jitter));
    quick "different seeds de-synchronize retries" (fun () ->
        (* at least two of these seeds must land on different jitter *)
        let b = Policy.default_backoff in
        let ds =
          List.map
            (fun s -> Policy.delay b ~seed:s ~attempt:1)
            [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
        in
        checkb "not all equal" true
          (List.exists (fun d -> d <> List.hd ds) ds));
  ]

(* ------------------------------------------------------------------ *)
(* Policy: circuit breaker *)

let breaker_tests =
  [
    quick "closed -> open after threshold consecutive failures" (fun () ->
        let b =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 3; cb_cooldown = 5 }
            ()
        in
        for _ = 1 to 2 do
          checkb "admitted" true (Policy.admit b "f" = `Allow);
          Policy.record b "f" ~ok:false
        done;
        (match Policy.breaker_state b "f" with
        | Policy.Closed 2 -> ()
        | _ -> Alcotest.fail "expected Closed 2");
        checkb "third attempt admitted" true (Policy.admit b "f" = `Allow);
        Policy.record b "f" ~ok:false;
        (match Policy.breaker_state b "f" with
        | Policy.Open _ -> ()
        | _ -> Alcotest.fail "expected Open");
        (* while open, calls are rejected *)
        match Policy.admit b "f" with
        | `Reject n -> checkb "cooldown remaining" true (n > 0)
        | `Allow -> Alcotest.fail "expected rejection");
    quick "a success resets the consecutive-failure count" (fun () ->
        let b =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 2; cb_cooldown = 5 }
            ()
        in
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:false;
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:true;
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:false;
        match Policy.breaker_state b "f" with
        | Policy.Closed 1 -> ()
        | _ -> Alcotest.fail "expected Closed 1");
    quick "open -> half-open probe after cooldown; success closes" (fun () ->
        let b =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 1; cb_cooldown = 3 }
            ()
        in
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:false;
        (* each rejected admission advances the logical clock *)
        (match Policy.admit b "f" with
        | `Reject _ -> ()
        | `Allow -> Alcotest.fail "too early");
        (match Policy.admit b "f" with
        | `Reject _ -> ()
        | `Allow -> Alcotest.fail "still too early");
        (match Policy.admit b "f" with
        | `Allow -> ()
        | `Reject _ -> Alcotest.fail "cooldown should have expired");
        (match Policy.breaker_state b "f" with
        | Policy.Half_open -> ()
        | _ -> Alcotest.fail "expected Half_open");
        Policy.record b "f" ~ok:true;
        match Policy.breaker_state b "f" with
        | Policy.Closed 0 -> ()
        | _ -> Alcotest.fail "expected Closed 0");
    quick "failed half-open probe re-opens the circuit" (fun () ->
        let b =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 1; cb_cooldown = 2 }
            ()
        in
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:false;
        ignore (Policy.admit b "f");
        ignore (Policy.admit b "f");
        (match Policy.admit b "f" with
        | `Allow -> ()
        | `Reject _ -> Alcotest.fail "expected half-open probe");
        Policy.record b "f" ~ok:false;
        (match Policy.breaker_state b "f" with
        | Policy.Open _ -> ()
        | _ -> Alcotest.fail "expected Open again");
        match Policy.admit b "f" with
        | `Reject _ -> ()
        | `Allow -> Alcotest.fail "expected rejection after failed probe");
    quick "cb.open diagnostic is an exit-2 runtime fault" (fun () ->
        let d = Policy.open_diag "f" 3 in
        checks "code" "cb.open" d.Diag.code;
        checkb "runtime fault class" true (Diag.is_runtime_fault d));
    quick "breakers are per-function" (fun () ->
        let b =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 1; cb_cooldown = 99 }
            ()
        in
        ignore (Policy.admit b "f");
        Policy.record b "f" ~ok:false;
        checkb "f rejected" true (Policy.admit b "f" <> `Allow);
        checkb "g unaffected" true (Policy.admit b "g" = `Allow));
  ]

(* ------------------------------------------------------------------ *)
(* Transactional calls *)

let churn_src =
  {|
    local std = terralib.includec("stdlib.h")
    terra churn(n : int32)
      var acc : int32 = 0
      for i = 0, n do
        var p = [&int32](std.malloc(32 + 8 * (i % 5)))
        p[0] = i
        acc = acc + p[0]
        if i % 3 == 0 then
          std.free([&uint8](p))
        end
      end
      return acc
    end
  |}

let transact_tests =
  [
    quick "failed call rolls the session back byte-for-byte" (fun () ->
        let e = engine ~checked:true () in
        let _ = run_ok e churn_src in
        (* warm up: compiles churn and commits its (leaky) effects *)
        (match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "warmup: %s" (Diag.to_string d));
        let mark = Engine.statics_mark e in
        let fp0 = Engine.fingerprint ~statics_upto:mark e in
        let leaks0 = List.length (Engine.leak_report e) in
        Engine.inject e (Fault.Trap_at_step (Tvm.Vm.steps (vm_of e) + 40));
        (match Engine.call_transactional e "churn" [ V.Num 50. ] with
        | Ok _ -> Alcotest.fail "expected the injected trap"
        | Error d -> checks "code" "fault.trap" d.Diag.code);
        checks "fingerprint unchanged" fp0
          (Engine.fingerprint ~statics_upto:mark e);
        checki "leak accounting unchanged" leaks0
          (List.length (Engine.leak_report e));
        (* and the session still works *)
        match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "post-rollback: %s" (Diag.to_string d));
    quick "a store the journal missed moves the rollback fingerprint"
      (fun () ->
        (* the fingerprint's write marks are its own, not the journal's,
           so a journal bug cannot hide from the rollback check *)
        let e = engine ~checked:true () in
        let _ = run_ok e churn_src in
        (match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "warmup: %s" (Diag.to_string d));
        let vm = vm_of e in
        let mark = Engine.statics_mark e in
        let fp0 = Engine.fingerprint ~statics_upto:mark e in
        let mem = vm.Tvm.Vm.mem in
        let addr = (Mem.heap_base mem + Mem.heap_limit mem) / 2 in
        Engine.inject e
          (Fault.Stray_store { step = Tvm.Vm.steps vm + 10; addr });
        Engine.inject e (Fault.Trap_at_step (Tvm.Vm.steps vm + 40));
        (match Engine.call_transactional e "churn" [ V.Num 50. ] with
        | Ok _ -> Alcotest.fail "expected the injected trap"
        | Error d -> checks "code" "fault.trap" d.Diag.code);
        checkb "fingerprint differs after rollback" true
          (fp0 <> Engine.fingerprint ~statics_upto:mark e);
        checks "cached = from scratch"
          (Tvm.Vm.fingerprint ~from_scratch:true ~statics_upto:mark vm)
          (Engine.fingerprint ~statics_upto:mark e));
    quick "successful call commits its effects" (fun () ->
        let e = engine ~checked:true () in
        let _ = run_ok e churn_src in
        let leaks0 = List.length (Engine.leak_report e) in
        (match Engine.call_transactional e "churn" [ V.Num 5. ] with
        | Ok [ V.Num 10. ] -> ()
        | Ok vs ->
            Alcotest.failf "unexpected result (%d values)" (List.length vs)
        | Error d -> Alcotest.failf "commit: %s" (Diag.to_string d));
        (* churn(5) leaks the blocks for i = 1, 2, 4 *)
        checki "committed leaks visible" (leaks0 + 3)
          (List.length (Engine.leak_report e)));
    quick "transactions do not nest" (fun () ->
        let e = engine () in
        let r =
          Engine.transact e (fun () ->
              match Engine.transact e (fun () -> ()) with
              | Error d -> d.Diag.code
              | Ok () -> "??")
        in
        match r with
        | Ok code -> checks "inner diagnostic" "txn.nested" code
        | Error d -> Alcotest.failf "outer: %s" (Diag.to_string d));
  ]

(* ------------------------------------------------------------------ *)
(* terralib.transact from Lua *)

let lua_transact_tests =
  [
    quick "transact is pcall with heap rollback" (fun () ->
        let e = engine ~checked:true () in
        let src =
          {|
            local std = terralib.includec("stdlib.h")
            terra bug(n : int32)
              var p = [&int32](std.malloc(64))
              p[0] = n
              var v = p[0]
              if n > 0 then
                std.free([&uint8](p))
                v = p[0] -- use after free
              else
                std.free([&uint8](p))
              end
              return v
            end
            print(bug(0)) -- compile + clean path, outside any transaction
            local fp = terralib.fingerprint()
            local ok, err = terralib.transact(bug, 1)
            print(ok, err.phase, err.code)
            print(fp == terralib.fingerprint())
            print(terralib.leakcheck())
            local ok2, v = terralib.transact(bug, 0)
            print(ok2, v)
          |}
        in
        let out = run_ok e src in
        checks "output"
          "0\nfalse\trun\tsan.use-after-free\ntrue\n0\t0\ntrue\t0\n" out);
    quick "nested transact is rejected from Lua too" (fun () ->
        let e = engine () in
        let src =
          {|
            terra one() return 1 end
            print(one())
            local ok, err = terralib.transact(function()
              local a, d = terralib.transact(one)
              print(a, d.code)
              return 7
            end)
            print(ok, err)
          |}
        in
        checks "output" "1\nfalse\ttxn.nested\ntrue\t7\n" (run_ok e src));
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor: retry, breaker integration, watchdog, opt fallback *)

let supervisor_tests =
  [
    quick "transient injected fault is retried and recovers" (fun () ->
        let e = engine ~checked:true () in
        let _ = run_ok e churn_src in
        (match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "warmup: %s" (Diag.to_string d));
        let fp0 = Engine.fingerprint e in
        (* ordinals count from the first injection: arm the next alloc *)
        Engine.inject e (Fault.Fail_alloc 1);
        let o = Supervisor.call e "churn" [ V.Num 3. ] in
        (match o.Supervisor.result with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "retry should recover: %s" (Diag.to_string d));
        checki "attempts" 2 o.Supervisor.attempts;
        checki "retries" 1 o.Supervisor.retries;
        checkb "backoff charged" true (o.Supervisor.backoff_total > 0);
        checkb "no fallback needed" false o.Supervisor.fallback;
        (* the successful retry committed: fingerprint moved on *)
        checkb "committed" true (Engine.fingerprint e <> fp0));
    quick "retry budget exhausts on repeated faults" (fun () ->
        let e = engine () in
        let _ = run_ok e churn_src in
        (match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "warmup: %s" (Diag.to_string d));
        (* every attempt allocates afresh, so consecutive ordinals fault
           every attempt: 2 retries then give up *)
        Engine.inject e (Fault.Fail_alloc 1);
        Engine.inject e (Fault.Fail_alloc 2);
        Engine.inject e (Fault.Fail_alloc 3);
        let cfg =
          {
            Supervisor.default_config with
            max_retries = 2;
            opt_fallback = false;
          }
        in
        let o = Supervisor.call ~config:cfg e "churn" [ V.Num 3. ] in
        (match o.Supervisor.result with
        | Error d -> checks "code" "fault.alloc" d.Diag.code
        | Ok _ -> Alcotest.fail "expected exhausted retries");
        checki "attempts" 3 o.Supervisor.attempts;
        checki "retries" 2 o.Supervisor.retries);
    quick "circuit breaker opens and rejects without executing" (fun () ->
        let e = engine ~checked:true () in
        let _ =
          run_ok e
            {|
              local std = terralib.includec("stdlib.h")
              terra bug()
                var p = [&int32](std.malloc(16))
                std.free([&uint8](p))
                return p[0]
              end
              terra warm() return 0 end
              warm()
            |}
        in
        let breaker =
          Policy.breaker
            ~config:{ Policy.cb_threshold = 2; cb_cooldown = 100 }
            ()
        in
        let cfg =
          {
            Supervisor.default_config with
            breaker = Some breaker;
            max_retries = 0;
            opt_fallback = false;
          }
        in
        let o1 = Supervisor.call ~config:cfg e "bug" [] in
        (match o1.Supervisor.result with
        | Error d -> checks "first failure" "san.use-after-free" d.Diag.code
        | Ok _ -> Alcotest.fail "bug should fail");
        let o2 = Supervisor.call ~config:cfg e "bug" [] in
        (match o2.Supervisor.result with
        | Error d -> checks "second failure" "san.use-after-free" d.Diag.code
        | Ok _ -> Alcotest.fail "bug should fail");
        let fp = Engine.fingerprint e in
        let o3 = Supervisor.call ~config:cfg e "bug" [] in
        (match o3.Supervisor.result with
        | Error d -> checks "rejected" "cb.open" d.Diag.code
        | Ok _ -> Alcotest.fail "expected cb.open");
        checki "rejected without executing" 0 o3.Supervisor.attempts;
        checks "session untouched by rejection" fp (Engine.fingerprint e));
    quick "per-call fuel watchdog bounds one call, not the engine" (fun () ->
        let e = engine () in
        let _ =
          run_ok e
            {|
              terra spin(n : int32)
                var s : int32 = 0
                for i = 0, n do s = s + i end
                return s
              end
              spin(1)
            |}
        in
        let cfg =
          {
            Supervisor.default_config with
            call_fuel = Some 200;
            opt_fallback = false;
          }
        in
        let o = Supervisor.call ~config:cfg e "spin" [ V.Num 1000000. ] in
        (match o.Supervisor.result with
        | Error d -> checks "watchdog code" "trap.fuel" d.Diag.code
        | Ok _ -> Alcotest.fail "expected the watchdog to fire");
        checkb "only the budget was burned" true
          (o.Supervisor.fuel_used <= 200);
        (* the engine's own (unlimited) budget survives: a small call runs *)
        match Supervisor.call ~config:cfg e "spin" [ V.Num 10. ] with
        | { Supervisor.result = Ok _; _ } -> ()
        | { Supervisor.result = Error d; _ } ->
            Alcotest.failf "engine should still run: %s" (Diag.to_string d));
    quick "opt fallback retries at opt 0 and reports divergence" (fun () ->
        let e = engine ~opt_level:2 () in
        let _ = run_ok e churn_src in
        (match Engine.call_transactional e "churn" [ V.Num 3. ] with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "warmup: %s" (Diag.to_string d));
        (* a one-shot trap: consumed by the opt-2 attempt, so the opt-0
           rebuild (retries disabled) succeeds -> divergence report *)
        Engine.inject e (Fault.Trap_at_step (Tvm.Vm.steps (vm_of e) + 10));
        let cfg = { Supervisor.default_config with max_retries = 0 } in
        let o = Supervisor.call ~config:cfg e "churn" [ V.Num 3. ] in
        (match o.Supervisor.result with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "fallback: %s" (Diag.to_string d));
        checkb "fallback ran" true o.Supervisor.fallback;
        (match o.Supervisor.divergence with
        | Some d -> checks "code" "supervise.opt-divergence" d.Diag.code
        | None -> Alcotest.fail "expected a divergence report");
        (* the engine's configured opt level is untouched *)
        checki "opt level restored" 2 (Engine.opt_level e));
    quick "supervised script retries get a fresh Lua scope" (fun () ->
        let e = engine () in
        Engine.inject e (Fault.Fail_alloc 1);
        let src =
          {|
            local std = terralib.includec("stdlib.h")
            terra work()
              var p = std.malloc(16)
              std.free(p)
              return 9
            end
            print(work())
          |}
        in
        let o = Supervisor.run_script ~file:"work.t" e src in
        (match o.Supervisor.result with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "script retry: %s" (Diag.to_string d));
        checki "attempts" 2 o.Supervisor.attempts;
        (* only the successful attempt's output is reported *)
        checks "output" "9\n" o.Supervisor.output);
  ]

(* ------------------------------------------------------------------ *)
(* Batch front end *)

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(** Parse a manifest that must be well-formed. *)
let parse_ok path =
  match Batch.parse_manifest path with
  | Ok reqs -> reqs
  | Error d -> Alcotest.failf "manifest parse failed: %s" (Diag.to_string d)

let batch_tests =
  [
    quick "manifest end to end: statuses, budgets, valid report" (fun () ->
        let dir = Filename.temp_file "supervise_batch" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "good.t")
          "terra f() return 40 + 2 end\nprint(f())\n";
        write_file (Filename.concat dir "bad.t")
          "terra g(n : int32) return 10 / n end\nprint(g(0))\n";
        write_file
          (Filename.concat dir "batch.manifest")
          "# smoke manifest\ngood.t fuel=100000\nbad.t retries=1\n";
        let json, _, code =
          Batch.run_manifest ~make_engine:engine
            (Filename.concat dir "batch.manifest")
        in
        checki "a failing request fails the batch" 1 code;
        let entries, _ =
          Batch.run ~make_engine:engine
            (parse_ok (Filename.concat dir "batch.manifest"))
        in
        (match entries with
        | [ good; bad ] ->
            checks "good status" "ok" good.Batch.e_status;
            checks "good output" "42\n" good.Batch.e_output;
            checks "bad status" "error" bad.Batch.e_status;
            (match bad.Batch.e_code with
            | Some "trap.divzero" -> ()
            | c ->
                Alcotest.failf "bad code: %s"
                  (Option.value c ~default:"<none>"))
        | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
        (* crude well-formedness: the report mentions both statuses and
           balances its brackets *)
        checkb "mentions ok" true
          (contains_sub ~sub:"\"status\":\"ok\"" json);
        checkb "mentions error" true
          (contains_sub ~sub:"\"status\":\"error\"" json));
    quick "requests share the engine but not Lua globals" (fun () ->
        let dir = Filename.temp_file "supervise_batch2" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        (* both scripts define a terra function of the same name: with a
           shared scope the second would hit the immutable-definition
           check *)
        write_file (Filename.concat dir "a.t")
          "terra f() return 1 end\nprint(f())\n";
        write_file (Filename.concat dir "b.t")
          "terra f() return 2 end\nprint(f())\n";
        write_file (Filename.concat dir "m") "a.t\nb.t\n";
        let entries, _ =
          Batch.run ~make_engine:engine (parse_ok (Filename.concat dir "m"))
        in
        match entries with
        | [ a; b ] ->
            checks "a" "ok" a.Batch.e_status;
            checks "b" "ok" b.Batch.e_status;
            checks "b output" "2\n" b.Batch.e_output
        | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
    quick "missing script is a batch.io error, not a crash" (fun () ->
        let dir = Filename.temp_file "supervise_batch3" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "m") "nonexistent.t\n";
        match
          Batch.run ~make_engine:engine (parse_ok (Filename.concat dir "m"))
        with
        | [ entry ], _ ->
            checks "status" "error" entry.Batch.e_status;
            checks "code" "batch.io"
              (Option.value entry.Batch.e_code ~default:"<none>")
        | l, _ -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
    quick "a malformed manifest is a structured diagnostic" (fun () ->
        let bad line =
          match Batch.parse_line ~dir:"." ~line_no:7 line with
          | Error d ->
              checks ("code for " ^ line) "batch.bad-manifest" d.Diag.code;
              checkb "names the line" true
                (contains_sub ~sub:"line 7" d.Diag.message)
          | Ok _ -> Alcotest.failf "line %S should be rejected" line
        in
        bad "a.t fuel=abc";
        bad "a.t fuel=-1";
        bad "a.t retries=1x";
        bad "a.t tenant=";
        bad "a.t bogus=1";
        bad "a.t fuel";
        (* and through parse_manifest / run_manifest: an error report,
           never an exception *)
        let dir = Filename.temp_file "supervise_badmanifest" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "m") "# ok so far\ngood.t\nbad.t fuel=abc\n";
        (match Batch.parse_manifest (Filename.concat dir "m") with
        | Error d ->
            checks "manifest code" "batch.bad-manifest" d.Diag.code;
            checkb "first bad line wins" true
              (contains_sub ~sub:"line 3" d.Diag.message)
        | Ok _ -> Alcotest.fail "malformed manifest accepted");
        let json, _, code =
          Batch.run_manifest ~make_engine:engine (Filename.concat dir "m")
        in
        checki "bad manifest fails the batch" 1 code;
        checkb "report carries the diagnostic" true
          (contains_sub ~sub:"batch.bad-manifest" json));
    quick "tenant= annotations flow through to the report" (fun () ->
        (match Batch.parse_line ~dir:"." "a.t fuel=9 tenant=alice" with
        | Ok (Some req) ->
            checks "tenant parsed" "alice"
              (Option.value req.Batch.req_tenant ~default:"<none>");
            checks "tenant_of" "alice" (Batch.tenant_of req)
        | _ -> Alcotest.fail "tenanted line did not parse");
        let dir = Filename.temp_file "supervise_tenant" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "a.t")
          "terra f() return 1 end\nprint(f())\n";
        write_file (Filename.concat dir "m")
          "a.t tenant=alice\na.t\n";
        match
          Batch.run ~make_engine:engine (parse_ok (Filename.concat dir "m"))
        with
        | [ a; b ], _ ->
            checks "annotated entry" "alice" a.Batch.e_tenant;
            checks "unannotated entry defaults" Batch.default_tenant
              b.Batch.e_tenant
        | l, _ -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  ]

(* Isolation: a row depends on its manifest line only — not on what
   ran before it on the same engine, nor on the worker count. *)

let rand_src =
  "local C = terralib.includec(\"stdlib.h\")\n\
   terra r() return C.rand() end\n\
   print(r())\n"

(* prints the address [malloc] returns: it moves if an earlier
   request's block survives *)
let addr_src =
  "local C = terralib.includec(\"stdlib.h\")\n\
   terra a() return [int64](C.malloc(16)) end\n\
   print(a())\n"

let batch_dir name files =
  let dir = Filename.temp_file name "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  List.iter (fun (f, src) -> write_file (Filename.concat dir f) src) files;
  dir

let rows ?(checked = false) ?(profile = false) ~jobs dir lines =
  write_file (Filename.concat dir "m") (String.concat "\n" lines ^ "\n");
  Batch.run ~jobs
    ~make_engine:(fun () -> engine ~checked ~profile ())
    (parse_ok (Filename.concat dir "m"))

let row_json e = Tprof.Json.to_string (Tprof.Json.Obj (Batch.entry_fields e))

let isolation_tests =
  [
    quick "rand() rows agree at every jobs and with a single run" (fun () ->
        let dir = batch_dir "batch_rand" [ ("rand.t", rand_src) ] in
        let single = run_ok (engine ()) rand_src in
        let at jobs = fst (rows ~jobs dir (List.init 4 (fun _ -> "rand.t"))) in
        let one = at 1 in
        List.iter
          (fun e ->
            checks "row output = single-program output" single e.Batch.e_output)
          one;
        let json = List.map row_json in
        checkb "four identical rows" true
          (List.for_all (String.equal (row_json (List.hd one))) (json one));
        Alcotest.(check (list string)) "jobs 2" (json one) (json (at 2));
        Alcotest.(check (list string)) "jobs 4" (json one) (json (at 4)));
    quick "a leaking request does not move the next request's row" (fun () ->
        let dir =
          batch_dir "batch_leak"
            [
              ("addr.t", addr_src);
              ("leak.t", Harness.read_file (Harness.golden "leak.t"));
              ( "invalid_free.t",
                Harness.read_file (Harness.golden "invalid_free.t") );
            ]
        in
        List.iter
          (fun checked ->
            let alone =
              fst (rows ~checked ~jobs:1 dir [ "addr.t"; "invalid_free.t" ])
            in
            let after_leak =
              fst
                (rows ~checked ~jobs:1 dir
                   [ "leak.t"; "addr.t"; "invalid_free.t" ])
            in
            match (alone, after_leak) with
            | [ a; f ], [ _; a'; f' ] ->
                checks "malloc address row" (row_json a) (row_json a');
                checks "invalid-free row" (row_json f) (row_json f');
                checks "the diagnostic names a heap address"
                  (if checked then "san.invalid-free" else "trap.free")
                  (Option.value f.Batch.e_code ~default:"<none>")
            | _ -> Alcotest.fail "wrong row count")
          [ false; true ]);
    quick "merged profile counts do not depend on jobs" (fun () ->
        let dir =
          batch_dir "batch_prof"
            [
              ("rand.t", rand_src);
              ("addr.t", addr_src);
              ("good.t", "terra f() return 40 + 2 end\nprint(f())\n");
            ]
        in
        let lines = [ "rand.t"; "good.t"; "addr.t"; "good.t"; "rand.t" ] in
        let _, p1 = rows ~profile:true ~jobs:1 dir lines in
        let _, p3 = rows ~profile:true ~jobs:3 dir lines in
        checkb "requests retired work" true (p1.Tprof.Report.total > 0);
        (* the text rendering carries every count and no [ms] *)
        checks "jobs 1 = jobs 3" (Tprof.Report.to_text p1)
          (Tprof.Report.to_text p3);
        let _, off = rows ~jobs:1 dir lines in
        checki "no profile without profiling" 0 off.Tprof.Report.total);
  ]

(* ------------------------------------------------------------------ *)
(* Global-state regressions (satellites) *)

let regression_tests =
  [
    quick "allocation jitter is per-allocator, not global" (fun () ->
        (* solo: record the addresses a lone allocator hands out *)
        let solo = ref [] in
        let mem = Mem.create () in
        let a = Alloc.create mem in
        for _ = 1 to 8 do
          solo := Alloc.malloc a 32 :: !solo
        done;
        (* interleaved: a second live allocator must not perturb the
           first one's addresses (the jitter cursor used to be a module
           global) *)
        let mem1 = Mem.create () and mem2 = Mem.create () in
        let a1 = Alloc.create mem1 and a2 = Alloc.create mem2 in
        let interleaved = ref [] in
        for i = 1 to 8 do
          if i mod 2 = 0 then ignore (Alloc.malloc a2 48);
          ignore (Alloc.malloc a2 16);
          interleaved := Alloc.malloc a1 32 :: !interleaved
        done;
        Alcotest.(check (list int)) "same addresses" (List.rev !solo)
          (List.rev !interleaved));
    quick "interpreter knobs are saved and restored around runs" (fun () ->
        (* the knobs now live in a per-interpreter state record; a run
           must leave the domain's ambient state untouched *)
        let ambient = Mlua.Interp.current () in
        let saved_depth = ambient.Mlua.Interp.max_call_depth in
        let saved_steps = ambient.Mlua.Interp.steps in
        Fun.protect
          ~finally:(fun () ->
            ambient.Mlua.Interp.max_call_depth <- saved_depth;
            ambient.Mlua.Interp.steps <- saved_steps)
          (fun () ->
            ambient.Mlua.Interp.max_call_depth <- 123;
            ambient.Mlua.Interp.steps <- 45678;
            let e = engine () in
            let _ = run_ok e "print(1 + 1)" in
            checki "depth untouched" 123
              ambient.Mlua.Interp.max_call_depth;
            checki "steps untouched" 45678 ambient.Mlua.Interp.steps));
    quick "two engines with different budgets do not interfere" (fun () ->
        let tight = Terrastd.create ~lua_steps:40 () in
        let roomy = Terrastd.create () in
        let loop = "local s = 0\nfor i = 1, 1000 do s = s + i end\nprint(s)" in
        (match Engine.run_protected tight loop with
        | Error d -> checks "tight budget trips" "trap.steps" d.Diag.code
        | Ok _ -> Alcotest.fail "expected trap.steps");
        (match Engine.run_capture_protected roomy loop with
        | _, Error d ->
            Alcotest.failf "roomy engine caught tight's budget: %s"
              (Diag.to_string d)
        | out, Ok _ -> checks "roomy runs" "500500\n" out);
        (* and the tight engine's budget is still enforced afterwards *)
        match Engine.run_protected tight loop with
        | Error d -> checks "still enforced" "trap.steps" d.Diag.code
        | Ok _ -> Alcotest.fail "tight budget lost after roomy's run");
  ]

let () =
  Alcotest.run "supervise"
    [
      ("backoff", backoff_tests);
      ("breaker", breaker_tests);
      ("transact", transact_tests);
      ("lua-transact", lua_transact_tests);
      ("supervisor", supervisor_tests);
      ("batch", batch_tests @ isolation_tests);
      ("regressions", regression_tests);
    ]
