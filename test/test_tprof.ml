(* Tprof: the tracing/profiling layer and its use as a regression
   oracle.

   Four layers are exercised: the probe directly (shadow-stack
   attribution, ring buffer, switches), the report/trace renderings
   (determinism, schema, balanced Chrome events), the engine boundary
   (profile total == fuel, zero observable overhead when off,
   transactions stay coherent), and the profiler-as-oracle gates that
   pin the optimizer's instruction-count wins on real workloads. *)

module Probe = Tprof.Probe
module Report = Tprof.Report
module Trace = Tprof.Trace
module Json = Tprof.Json
open Terra

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let quick = Harness.quick

(* name_of for hand-driven probes *)
let nm id = Printf.sprintf "f%d" id

(* Drive a probe through a canned two-function program:
   enter f1, 5 instrs, call f2, 3 instrs, ret, 2 instrs, ret. *)
let canned ?(on = true) ?(tracing = false) ?ring () =
  let p = Probe.create ?ring () in
  Probe.set_on p on;
  Probe.set_tracing p tracing;
  let retire_n n =
    for _ = 1 to n do
      Probe.retire p
    done
  in
  let p1 = Probe.enter p ~id:1 ~name:"f1" in
  retire_n 5;
  let p2 = Probe.enter p ~id:2 ~name:"f2" in
  retire_n 3;
  Probe.leave p ~id:2 ~pushed:p2;
  retire_n 2;
  Probe.leave p ~id:1 ~pushed:p1;
  p

(* ------------------------------------------------------------------ *)
(* Probe: shadow-stack attribution *)

let probe_tests =
  [
    quick "self/total attribution across nested calls" (fun () ->
        let p = canned () in
        let s1 = Probe.stat p 1 "f1" and s2 = Probe.stat p 2 "f2" in
        checki "f1 self" 7 s1.Probe.fs_self;
        checki "f1 total" 10 s1.Probe.fs_total;
        checki "f2 self" 3 s2.Probe.fs_self;
        checki "f2 total" 3 s2.Probe.fs_total;
        checki "retired" 10 p.Probe.retired;
        checki "tick follows retirement" 10 p.Probe.tick);
    quick "recursive calls never double-count totals" (fun () ->
        let p = Probe.create () in
        Probe.set_on p true;
        let a = Probe.enter p ~id:1 ~name:"f1" in
        Probe.retire p;
        Probe.retire p;
        let b = Probe.enter p ~id:1 ~name:"f1" in
        Probe.retire p;
        Probe.retire p;
        Probe.retire p;
        Probe.leave p ~id:1 ~pushed:b;
        Probe.leave p ~id:1 ~pushed:a;
        let s = Probe.stat p 1 "f1" in
        checki "self" 5 s.Probe.fs_self;
        checki "total == program total despite recursion" 5 s.Probe.fs_total);
    quick "enter while off pushes nothing; leave stays balanced" (fun () ->
        let p = Probe.create () in
        let pushed = Probe.enter p ~id:1 ~name:"f1" in
        checkb "not pushed" false pushed;
        Probe.leave p ~id:1 ~pushed;
        checkb "stack empty" true (p.Probe.stack = []));
    quick "toggling profiling off mid-call keeps the stack balanced"
      (fun () ->
        let p = Probe.create () in
        Probe.set_on p true;
        let pushed = Probe.enter p ~id:1 ~name:"f1" in
        Probe.retire p;
        Probe.set_on p false;
        Probe.retire p;
        (* must still pop: pushed was true *)
        Probe.leave p ~id:1 ~pushed;
        checkb "stack empty" true (p.Probe.stack = []);
        checki "only the on-tick counted" 1 p.Probe.retired);
    quick "caller->callee edges accumulate calls and inclusive ticks"
      (fun () ->
        let p = canned () in
        match Hashtbl.find_opt p.Probe.edges (1, 2) with
        | None -> Alcotest.fail "edge (f1,f2) missing"
        | Some e ->
            checki "calls" 1 e.Probe.es_calls;
            checki "inclusive ticks" 3 e.Probe.es_ticks);
    quick "allocs and frees attribute to the innermost frame" (fun () ->
        let p = Probe.create () in
        Probe.set_on p true;
        let pushed = Probe.enter p ~id:1 ~name:"f1" in
        Probe.alloc p ~addr:0x100 ~bytes:64;
        Probe.alloc p ~addr:0x200 ~bytes:16;
        Probe.free p ~addr:0x100;
        Probe.leave p ~id:1 ~pushed;
        let s = Probe.stat p 1 "f1" in
        checki "frame allocs" 2 s.Probe.fs_allocs;
        checki "frame bytes" 80 s.Probe.fs_alloc_bytes;
        checki "frame frees" 1 s.Probe.fs_frees;
        checki "global allocs" 2 p.Probe.allocs;
        checki "global bytes" 80 p.Probe.alloc_bytes;
        checki "global frees" 1 p.Probe.frees);
    quick "ring buffer overwrites oldest and reports drops" (fun () ->
        let p = Probe.create ~ring:16 () in
        Probe.set_tracing p true;
        for i = 1 to 20 do
          Probe.retire p;
          Probe.mark p (string_of_int i)
        done;
        checki "dropped" 4 (Probe.dropped_events p);
        let evs = Probe.events p in
        checki "capacity kept" 16 (List.length evs);
        (match evs with
        | { Probe.ev_tick = t0; _ } :: _ ->
            checki "oldest surviving event first" 5 t0
        | [] -> Alcotest.fail "no events");
        (* ticks are non-decreasing oldest-first *)
        let rec mono = function
          | a :: (b :: _ as rest) ->
              a.Probe.ev_tick <= b.Probe.ev_tick && mono rest
          | _ -> true
        in
        checkb "monotone ticks" true (mono evs));
    quick "reset clears counters but keeps the switches" (fun () ->
        let p = canned ~tracing:true () in
        Probe.reset p;
        checki "retired" 0 p.Probe.retired;
        checki "tick" 0 p.Probe.tick;
        checki "events" 0 (List.length (Probe.events p));
        checkb "still on" true p.Probe.on;
        checkb "still tracing" true p.Probe.tracing;
        checkb "still active" true p.Probe.active);
    (* Host timers read the monotonic clock: a phase that sleeps burns
       no CPU, so a CPU-time clock would record ~0 ms for it. *)
    quick "phase timers measure wall time, not CPU time" (fun () ->
        let p = Probe.create () in
        Probe.set_on p true;
        Probe.time p "sleep" (fun () -> Unix.sleepf 0.02);
        let ms = (Hashtbl.find p.Probe.phases "sleep").Probe.ps_ms in
        checkb (Printf.sprintf "probe phase %.3f ms >= 15" ms) true (ms >= 15.0);
        let stats = Topt.Stats.create () in
        Topt.Pipeline.timed stats "sleep" (fun () ->
            Unix.sleepf 0.02;
            0);
        let s = (Topt.Stats.pass stats "sleep").Topt.Stats.p_time in
        checkb (Printf.sprintf "topt pass %.3f s >= 0.015" s) true (s >= 0.015));
  ]

(* ------------------------------------------------------------------ *)
(* Report: ordering, schema, determinism *)

let report_tests =
  [
    quick "flat rows sort by self descending" (fun () ->
        let p = canned () in
        let r = Report.of_probe ~name_of:nm p in
        checks "order"
          (String.concat "," (List.map (fun f -> f.Report.f_name) r.Report.funcs))
          "f1,f2";
        checki "total" 10 r.Report.total);
    quick "json report carries the schema and the exact total" (fun () ->
        let p = canned () in
        let r = Report.of_probe ~name_of:nm p in
        (match Report.to_json_value r with
        | Json.Obj fields ->
            checkb "schema" true
              (List.assoc_opt "schema" fields = Some (Json.Str "terra-prof-1"));
            checkb "total_retired" true
              (List.assoc_opt "total_retired" fields = Some (Json.Int 10));
            checkb "functions is a list" true
              (match List.assoc_opt "functions" fields with
              | Some (Json.List _) -> true
              | _ -> false)
        | _ -> Alcotest.fail "report is not a JSON object");
        checkb "serialized schema tag" true
          (Harness.contains_sub ~sub:"\"terra-prof-1\""
             (Report.to_json r)));
    quick "text rendering is identical for identically-driven probes"
      (fun () ->
        let r1 = Report.of_probe ~name_of:nm (canned ()) in
        let r2 = Report.of_probe ~name_of:nm (canned ()) in
        checks "text" (Report.to_text r1) (Report.to_text r2));
    quick "extra phase rows render after probe phases" (fun () ->
        let p = canned () in
        Probe.phase_count p "jit.codecache.hit";
        let extra = [ { Report.p_name = "opt.dce"; p_count = 3; p_ms = 0.0 } ] in
        let r = Report.of_probe ~extra ~name_of:nm p in
        checkb "both present" true
          (List.exists (fun x -> x.Report.p_name = "jit.codecache.hit")
             r.Report.phases
          && List.exists (fun x -> x.Report.p_name = "opt.dce") r.Report.phases));
  ]

(* ------------------------------------------------------------------ *)
(* Trace: text dump and Chrome export invariants *)

(* Walk a Chrome trace value checking balanced B/E and monotone ts. *)
let check_chrome_invariants v =
  (* Chrome "JSON array format": the top level is the event list *)
  let events =
    match v with
    | Json.List l -> l
    | _ -> Alcotest.fail "trace is not a JSON array"
  in
  let field e k =
    match e with Json.Obj f -> List.assoc_opt k f | _ -> None
  in
  let depth = ref 0 and last_ts = ref min_int in
  List.iter
    (fun e ->
      (match field e "ts" with
      | Some (Json.Int ts) ->
          checkb "ts non-negative" true (ts >= 0);
          checkb "ts monotone" true (ts >= !last_ts);
          last_ts := ts
      | _ -> Alcotest.fail "event without ts");
      match field e "ph" with
      | Some (Json.Str "B") -> incr depth
      | Some (Json.Str "E") ->
          decr depth;
          checkb "E never precedes its B" true (!depth >= 0)
      | Some (Json.Str "i") -> ()
      | _ -> Alcotest.fail "unexpected phase")
    events;
  checki "balanced B/E" 0 !depth;
  events

let trace_tests =
  [
    quick "text dump is tick-stamped and deterministic" (fun () ->
        let d1 = Trace.to_text ~name_of:nm (canned ~tracing:true ()) in
        let d2 = Trace.to_text ~name_of:nm (canned ~tracing:true ()) in
        checks "identical dumps" d1 d2;
        checkb "call line" true (Harness.contains_sub ~sub:"call f2" d1);
        checkb "ret line" true (Harness.contains_sub ~sub:"ret f1" d1));
    quick "text dump flags dropped events" (fun () ->
        let p = Probe.create ~ring:16 () in
        Probe.set_tracing p true;
        for i = 1 to 20 do
          Probe.mark p (string_of_int i)
        done;
        checkb "drop header" true
          (Harness.contains_sub ~sub:"# 4 oldest events dropped"
             (Trace.to_text ~name_of:nm p)));
    quick "chrome export is balanced with monotone timestamps" (fun () ->
        let p = canned ~tracing:true () in
        let evs = check_chrome_invariants (Trace.to_chrome_value ~name_of:nm p) in
        checkb "has events" true (evs <> []));
    quick "chrome export closes still-open calls" (fun () ->
        let p = Probe.create () in
        Probe.set_tracing p true;
        let _ = Probe.enter p ~id:1 ~name:"f1" in
        Probe.retire p;
        let _ = Probe.enter p ~id:2 ~name:"f2" in
        Probe.retire p;
        (* neither call returns: the exporter must synthesize Es *)
        let _ = check_chrome_invariants (Trace.to_chrome_value ~name_of:nm p) in
        ());
    quick "chrome export skips orphan returns" (fun () ->
        let p = Probe.create () in
        Probe.set_tracing p true;
        (* a ret whose call fell off the ring *)
        Probe.leave p ~id:7 ~pushed:false;
        let pushed = Probe.enter p ~id:1 ~name:"f1" in
        Probe.retire p;
        Probe.leave p ~id:1 ~pushed;
        let _ = check_chrome_invariants (Trace.to_chrome_value ~name_of:nm p) in
        ());
  ]

(* ------------------------------------------------------------------ *)
(* Engine boundary *)

let mandel_src () = Harness.read_file (Harness.example "mandelbrot.t")

let alloc_src =
  {|
local std = terralib.includec("stdlib.h")
terra churn()
  var p = [&int32](std.malloc(64))
  p[0] = 7
  var r = p[0]
  std.free(p)
  return r
end
print(churn())
|}

let engine_tests =
  [
    quick "profile total equals the fuel accounting (examples)" (fun () ->
        List.iter
          (fun name ->
            Harness.with_engine ~profile:true (fun e ->
                let _ =
                  Harness.run_ok e
                    (Harness.read_file (Harness.example name))
                in
                let r = Engine.profile e in
                checki (name ^ ": total == fuel_used") (Engine.fuel_used e)
                  r.Report.total;
                checkb (name ^ ": something ran") true (r.Report.total > 0);
                checkb (name ^ ": functions attributed") true
                  (r.Report.funcs <> []);
                List.iter
                  (fun f ->
                    checkb
                      (Printf.sprintf "%s: %s has 0 <= self <= total <= all"
                         name f.Report.f_name)
                      true
                      (0 <= f.Report.f_self
                      && f.Report.f_self <= f.Report.f_total
                      && f.Report.f_total <= r.Report.total))
                  r.Report.funcs;
                checkb (name ^ ": self times sum within the total") true
                  (List.fold_left (fun acc f -> acc + f.Report.f_self) 0
                     r.Report.funcs
                  <= r.Report.total)))
          [ "mandelbrot.t"; "paper_surface.t" ]);
    quick "profiles are byte-identical across runs" (fun () ->
        let run () =
          Harness.with_engine ~profile:true
            (fun e ->
              let _ = Harness.run_ok e (mandel_src ()) in
              Engine.profile_text e)
        in
        checks "profile text" (run ()) (run ()));
    quick "profiling changes neither output nor fuel" (fun () ->
        let run profile =
          Harness.with_engine ~profile (fun e ->
              let out = Harness.run_ok e (mandel_src ()) in
              (out, Engine.fuel_used e))
        in
        let out_off, fuel_off = run false in
        let out_on, fuel_on = run true in
        checks "stdout" out_off out_on;
        checki "fuel identical with profiling on" fuel_off fuel_on);
    quick "rolled-back transaction stays coherent in the profile" (fun () ->
        Harness.with_engine ~profile:true ~trace:true (fun e ->
            let _ =
              Harness.run_ok e
                {|
local std = terralib.includec("stdlib.h")
terra leaky()
  var p = std.malloc(256)
  return 1
end
local ok = terralib.transact(function()
  leaky()
  error("boom")
end)
print(ok)
|}
            in
            let vm = e.Engine.ctx.Context.vm in
            (* the heap really rolled back... *)
            checki "no live program bytes after rollback" 0
              (Tvm.Alloc.live_bytes vm.Tvm.Vm.alloc);
            (* ...but the probe's monotone counters kept the history *)
            let p = Engine.probe e in
            checkb "allocation recorded" true (p.Probe.allocs >= 1);
            let dump = Engine.trace_text e in
            checkb "txn begin traced" true
              (Harness.contains_sub ~sub:"txn begin" dump);
            checkb "txn rollback traced" true
              (Harness.contains_sub ~sub:"txn rollback" dump)));
    quick "code-cache hits surface as a compile phase" (fun () ->
        Harness.with_engine ~profile:true (fun e ->
            let _ =
              Harness.run_ok e
                "terra f() return 1 end\nprint(f())\nprint(f())"
            in
            let r = Engine.profile e in
            match
              List.find_opt
                (fun p -> p.Report.p_name = "jit.codecache.hit")
                r.Report.phases
            with
            | Some p -> checkb "hit counted" true (p.Report.p_count >= 1)
            | None -> Alcotest.fail "no jit.codecache.hit phase"));
    quick "codecache hits + misses = ensure_compiled visits" (fun () ->
        (* cache accounting ties out by construction, like fuel: every
           non-extern ensure is exactly one hit or one miss *)
        Harness.with_engine ~profile:true (fun e ->
            let _ =
              Harness.run_ok e
                {|
terra g() : int32 return 2 end
terra f() return g() + 1 end
print(f())
print(f())
print(g())
|}
            in
            let phase name =
              match
                List.find_opt
                  (fun p -> p.Report.p_name = name)
                  (Engine.profile e).Report.phases
              with
              | Some p -> p.Report.p_count
              | None -> 0
            in
            let ensure = phase "jit.ensure" in
            let hits = phase "jit.codecache.hit" in
            let misses = phase "jit.codecache.miss" in
            checkb "some ensures" true (ensure > 0);
            checki "misses = functions compiled" 2 misses;
            checki "hits + misses = ensures" ensure (hits + misses)));
    quick "compile phases are timed" (fun () ->
        Harness.with_engine ~profile:true (fun e ->
            let _ = Harness.run_ok e "terra f() return 1 end\nprint(f())" in
            let names =
              List.map (fun p -> p.Report.p_name) (Engine.profile e).Report.phases
            in
            List.iter
              (fun n ->
                checkb (n ^ " present") true (List.mem n names))
              [ "frontend.specialize"; "jit.typecheck"; "jit.compile" ]));
    quick "redzone checks are counted under checked execution" (fun () ->
        Harness.with_engine ~checked:true ~profile:true (fun e ->
            let _ = Harness.run_ok e alloc_src in
            let p = Engine.probe e in
            checkb "redzone checks seen" true (p.Probe.redzone > 0);
            checki "alloc seen" 1 p.Probe.allocs;
            checki "free seen" 1 p.Probe.frees));
    quick "unchecked engine counts no redzone checks" (fun () ->
        Harness.with_engine ~profile:true (fun e ->
            let _ = Harness.run_ok e alloc_src in
            checki "no shadow, no checks" 0 (Engine.probe e).Probe.redzone));
  ]

let lua_api_tests =
  [
    quick "terralib.profileon/profile expose live counters" (fun () ->
        Harness.with_engine (fun e ->
            Harness.run_expect e
              {|
local was = terralib.profileon()
print(was)
terra f() return 21 + 21 end
print(f())
local p = terralib.profile()
print(p.total > 0)
print(p.functions["f"].calls)
terralib.profileoff()
|}
              ~expect:"false\n42\ntrue\n1\n"));
    quick "terralib.profilereset zeroes the counters" (fun () ->
        Harness.with_engine ~profile:true (fun e ->
            Harness.run_expect e
              {|
terra f() return 1 end
print(f())
terralib.profilereset()
local p = terralib.profile()
print(p.total)
|}
              ~expect:"1\n0\n"));
    quick "terralib.traceon/tracedump record VM events" (fun () ->
        Harness.with_engine (fun e ->
            let out =
              Harness.run_ok e
                {|
terralib.traceon()
terra f() return 1 end
print(f())
io.write(terralib.tracedump())
terralib.traceoff()
|}
            in
            checkb "trace sees the call" true
              (Harness.contains_sub ~sub:"call f" out);
            checkb "trace sees the return" true
              (Harness.contains_sub ~sub:"ret f" out)));
    quick "terralib.profiletext matches the engine rendering" (fun () ->
        Harness.with_engine ~profile:true (fun e ->
            let _ = Harness.run_ok e "terra f() return 1 end\nprint(f())" in
            let lua =
              Harness.run_ok e "io.write(terralib.profiletext())"
            in
            (* the second run itself retired instructions, so only the
               shape is compared, not the counts *)
            checkb "flat-profile header" true
              (Harness.contains_sub ~sub:"self" lua);
            checkb "names the function" true
              (Harness.contains_sub ~sub:"f" lua)));
  ]

(* ------------------------------------------------------------------ *)
(* Profiler-as-oracle: optimizer regression gates *)

let gate_tests =
  [
    quick "opt2 mandelbrot retires >=20% fewer instructions than opt0"
      (fun () ->
        let total level =
          Harness.with_engine ~opt_level:level
            ~profile:true (fun e ->
              let _ = Harness.run_ok e (mandel_src ()) in
              (Engine.profile e).Report.total)
        in
        let t0 = total 0 and t2 = total 2 in
        let reduction = 100.0 *. float_of_int (t0 - t2) /. float_of_int t0 in
        checkb
          (Printf.sprintf
             "mandelbrot retired reduced >= 20%% (measured %.1f%%: %d -> %d)"
             reduction t0 t2)
          true (reduction >= 20.0));
    quick "opt2 blocked DGEMM retires >=30% fewer instructions than opt0"
      (fun () ->
        let run level =
          let ctx = Terra.Context.create ~opt_level:level () in
          let elem = Terra.Types.double in
          let n = 96 in
          let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
          Tuner.Gemm.fill_matrices ctx ~elem m;
          let reference = Tuner.Gemm.reference ctx ~elem m in
          let p = { Tuner.Gemm.nb = 24; rm = 2; rn = 2; v = 4 } in
          let kernel = Tuner.Gemm.genkernel ctx ~elem p in
          let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:24 in
          Terra.Jit.ensure_compiled driver;
          (* enable after compilation: the gate measures the multiply *)
          let probe = Terra.Context.probe ctx in
          Tprof.Probe.set_on probe true;
          let r0 = probe.Probe.retired in
          let _ = Tuner.Gemm.run_gemm ctx driver m in
          let retired = probe.Probe.retired - r0 in
          let err = Tuner.Gemm.max_error ctx ~elem m reference in
          Tuner.Gemm.free_matrices ctx m;
          (retired, err)
        in
        let r0, e0 = run 0 in
        let r2, e2 = run 2 in
        checkb "opt0 correct" true (e0 < 1e-9);
        checkb "opt2 correct" true (e2 < 1e-9);
        let reduction = 100.0 *. float_of_int (r0 - r2) /. float_of_int r0 in
        checkb
          (Printf.sprintf
             "gemm retired reduced >= 30%% (measured %.1f%%: %d -> %d)"
             reduction r0 r2)
          true (reduction >= 30.0));
  ]

(* ------------------------------------------------------------------ *)
(* Parser hardening: the serve front end feeds network bytes straight
   into [Json.of_string], so hostile input must produce the documented
   parse error — never a raw exception, never a stack overflow — and
   printing must invert parsing. *)

(* a representative report-shaped value to mutate *)
let fuzz_base =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "terra-prof-1");
         ("total_retired", Json.Int 1234567);
         ("f", Json.Float (-12.5));
         ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
         ( "funcs",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.Str "main \"quoted\" \\ tab\t\n");
                   ("retired", Json.Int 99);
                   ("nested", Json.List [ Json.Obj [ ("k", Json.Int 1) ] ]);
                 ];
             ] );
       ])

let parser_fuzz_tests =
  [
    quick "deep nesting is a parse error, not a stack overflow" (fun () ->
        let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
        (match Json.of_string (deep 50_000) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted 50k-deep nesting");
        (match Json.of_string (String.make 200_000 '[') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted an unclosed '[' run");
        (match Json.of_string (String.make 200_000 '{') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted an unclosed '{' run");
        (* nesting within the documented cap still parses *)
        match Json.of_string (deep 64) with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "rejected 64-deep nesting: %s" m);
    quick "seeded byte mutations never escape the error type" (fun () ->
        (* deterministic LCG so a failure reproduces exactly *)
        let state = ref 0x2545F49 in
        let rand m =
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod m
        in
        for _ = 1 to 3000 do
          let b = Bytes.of_string fuzz_base in
          for _ = 0 to rand 4 do
            Bytes.set b (rand (Bytes.length b)) (Char.chr (rand 256))
          done;
          match Json.of_string (Bytes.to_string b) with
          | Ok _ | Error _ -> ()
        done);
    quick "every truncation of a valid document is handled" (fun () ->
        for keep = 0 to String.length fuzz_base - 1 do
          match Json.of_string (String.sub fuzz_base 0 keep) with
          | Ok _ | Error _ -> ()
        done;
        match Json.of_string fuzz_base with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "the untruncated document failed: %s" m);
  ]

(* Round-trip property: floats constrained to %.6f-representable values
   (k/1000), matching the emitter's fixed-point format. *)
let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
      (fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
                 map
                   (fun k -> Json.Float (float_of_int k /. 1000.))
                   (int_range (-4_000_000) 4_000_000);
                 map (fun s -> Json.Str s) (string_size (int_bound 12));
               ]
           in
           if n = 0 then scalar
           else
             oneof
               [
                 scalar;
                 map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1)));
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 8)) (self (n - 1))));
               ])))

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string inverts to_string"
    (QCheck.make gen_json) (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Json.to_string j' = Json.to_string j
      | Error _ -> false)

let () =
  Alcotest.run "tprof"
    [
      ("probe", probe_tests);
      ("report", report_tests);
      ("trace", trace_tests);
      ("engine", engine_tests);
      ("lua-api", lua_api_tests);
      ("gates", gate_tests);
      ( "parser",
        parser_fuzz_tests
        @ [ QCheck_alcotest.to_alcotest prop_json_roundtrip ] );
    ]
