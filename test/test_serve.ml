(* terra_serve: the protocol, engine-reuse hygiene, admission control,
   per-tenant circuit breakers, and the deterministic mixed-traffic
   soak.  Everything drives the in-process [Serve.Server] — the binary
   adds only channel plumbing on top of [Server.run_channels], which is
   covered here too. *)

open Terra
module Json = Tprof.Json
module Server = Serve.Server
module Protocol = Serve.Protocol
module Tenant = Serve.Tenant
module Pool = Serve.Pool
module Batch = Supervise.Batch

let quick = Harness.quick
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Response plumbing *)

let jget j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response missing field %S" k

let jstr j k =
  match jget j k with
  | Json.Str s -> s
  | Json.Null -> "<null>"
  | _ -> Alcotest.failf "field %S is not a string" k

let jint j k =
  match jget j k with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %S is not an int" k

let jbool j k =
  match jget j k with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a bool" k

let jlist j k =
  match jget j k with
  | Json.List l -> l
  | _ -> Alcotest.failf "field %S is not a list" k

let mk_server ?(pool = 2) ?(recycle = 64) ?(checked = true) ?(verify = true)
    ?(budget = Tenant.default_budget) ?mem_bytes () =
  let config =
    {
      Server.default_config with
      pool_size = pool;
      recycle_after = recycle;
      checked;
      verify_rollback = verify;
      default_budget = budget;
      mem_bytes;
    }
  in
  Server.create ~config ()

let ask server line =
  match Server.handle server line with
  | Some (j, `Continue) -> j
  | Some (_, `Shutdown) -> Alcotest.failf "line %S shut the server down" line
  | None -> Alcotest.failf "line %S produced no response" line

(** Build a JSON run-request line with the emitter itself, so tests
    never hand-escape strings. *)
let run_line ?path ?src ?tenant ?fuel ?retries ?fail_alloc ?trap_in () =
  let opt k v f = match v with Some x -> [ (k, f x) ] | None -> [] in
  Json.to_string
    (Json.Obj
       (opt "path" path (fun s -> Json.Str s)
       @ opt "src" src (fun s -> Json.Str s)
       @ opt "tenant" tenant (fun s -> Json.Str s)
       @ opt "fuel" fuel (fun n -> Json.Int n)
       @ opt "retries" retries (fun n -> Json.Int n)
       @ opt "fail_alloc" fail_alloc (fun n -> Json.Int n)
       @ opt "trap_in" trap_in (fun n -> Json.Int n)))

(* Request corpus: one representative per failure mode. *)
let good_src = "terra f() return 40 + 2 end print(f())"

let alloc_src =
  "local std = terralib.includec(\"stdlib.h\") terra g() var p = \
   [&int32](std.malloc(32)) p[0] = 7 var v = p[0] std.free([&uint8](p)) \
   return v end print(g())"

let divzero_src = "terra d(n : int32) return 10 / n end print(d(0))"

let spin_src =
  "terra spin(n : int32) var x = 0 for i = 0, n do x = x + i end return x \
   end print(spin(1000000))"

let recur_src = "terra f(n : int) : int return f(n + 1) end print(f(0))"

(* ------------------------------------------------------------------ *)
(* The wire protocol *)

let protocol_tests =
  [
    quick "the JSON parser round-trips emitted values" (fun () ->
        let j =
          Json.Obj
            [
              ("a", Json.List [ Json.Int 1; Json.Int (-2); Json.Bool true ]);
              ("s", Json.Str "line\nbreak \"quoted\" \\ tab\t");
              ("f", Json.Float 1.5);
              ("n", Json.Null);
              ("o", Json.Obj [ ("k", Json.Str "v") ]);
            ]
        in
        match Json.of_string (Json.to_string j) with
        | Error msg -> Alcotest.failf "round-trip failed: %s" msg
        | Ok j' ->
            checks "round-trip" (Json.to_string j) (Json.to_string j');
            checks "nested member" "v"
              (match Json.member "o" j' with
              | Some o -> jstr o "k"
              | None -> "<missing>"));
    quick "the JSON parser handles escapes and rejects garbage" (fun () ->
        (match Json.of_string "  {\"u\":\"\\u0041\",\"e\":[]}  " with
        | Ok j -> checks "unicode escape" "A" (jstr j "u")
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
        let bad s =
          match Json.of_string s with
          | Ok _ -> Alcotest.failf "accepted malformed %S" s
          | Error _ -> ()
        in
        bad "{";
        bad "1 2";
        bad "nul";
        bad "{\"a\":}";
        bad "\"unterminated");
    quick "blank and comment lines are ignored" (fun () ->
        List.iter
          (fun line ->
            match Protocol.parse line with
            | Ok None -> ()
            | _ -> Alcotest.failf "line %S should be ignored" line)
          [ ""; "   "; "\t"; "# a manifest comment" ]);
    quick "both request spellings parse to the same shape" (fun () ->
        (match
           Protocol.parse
             (run_line ~src:good_src ~tenant:"alice" ~fuel:5 ~retries:1 ())
         with
        | Ok (Some (Protocol.Run r)) ->
            checkb "no path" true (r.Protocol.r_path = None);
            checks "tenant" "alice"
              (Option.value r.Protocol.r_tenant ~default:"<none>");
            checki "fuel" 5 (Option.value r.Protocol.r_fuel ~default:(-1));
            checki "retries" 1
              (Option.value r.Protocol.r_retries ~default:(-1))
        | _ -> Alcotest.fail "JSON run line did not parse");
        match Protocol.parse "programs/leak.t fuel=5 tenant=bob" with
        | Ok (Some (Protocol.Run r)) ->
            checks "manifest path"
              (Filename.concat "." "programs/leak.t")
              (Option.value r.Protocol.r_path ~default:"<none>");
            checks "manifest tenant" "bob"
              (Option.value r.Protocol.r_tenant ~default:"<none>");
            checki "manifest fuel" 5
              (Option.value r.Protocol.r_fuel ~default:(-1))
        | _ -> Alcotest.fail "manifest line did not parse");
    quick "introspection ops parse" (fun () ->
        List.iter
          (fun (line, want) ->
            match Protocol.parse line with
            | Ok (Some got) when got = want -> ()
            | _ -> Alcotest.failf "op line %S misparsed" line)
          [
            ("{\"op\":\"status\"}", Protocol.Status);
            ("{\"op\":\"profile\"}", Protocol.Profile);
            ("{\"op\":\"breakers\"}", Protocol.Breakers);
            ("{\"op\":\"shutdown\"}", Protocol.Shutdown);
          ]);
    quick "malformed requests are structured diagnostics" (fun () ->
        let bad line want_code =
          match Protocol.parse line with
          | Error d -> checks ("code for " ^ line) want_code d.Diag.code
          | Ok _ -> Alcotest.failf "line %S should be rejected" line
        in
        bad "{\"op\":\"nope\"}" "serve.bad-request";
        bad "{}" "serve.bad-request";
        bad "{\"path\":\"a.t\",\"src\":\"x\"}" "serve.bad-request";
        bad "{\"src\":\"x\",\"fuel\":-1}" "serve.bad-request";
        bad "{\"src\":\"x\",\"fuel\":\"lots\"}" "serve.bad-request";
        bad "{broken json" "serve.bad-request";
        bad "a.t fuel=abc" "batch.bad-manifest";
        bad "a.t tenant=" "batch.bad-manifest");
  ]

(* ------------------------------------------------------------------ *)
(* Engine-reuse hygiene (satellite: reset_scope ~slice) *)

let hygiene_tests =
  [
    quick "two sequential leaky requests are each reported once" (fun () ->
        let e = Harness.engine ~checked:true () in
        let leak_src = Harness.read_file (Harness.golden "leak.t") in
        let _ = Harness.run_ok e leak_src in
        let leaks1 = Engine.leak_report e in
        checki "first request leaks one block" 1 (List.length leaks1);
        (* the serving layer's between-requests reset: the old leak
           becomes baseline, so the next report starts empty *)
        Engine.reset_scope ~slice:true e;
        checki "re-armed report is empty" 0
          (List.length (Engine.leak_report e));
        let _ = Harness.run_ok e leak_src in
        let leaks2 = Engine.leak_report e in
        checki "second request leaks one block, not two" 1
          (List.length leaks2);
        checki "and it is the fresh 64-byte block" 64
          (List.fold_left (fun a (_, s) -> a + s) 0 leaks2));
    quick "profile slices cover exactly one request" (fun () ->
        let e = Harness.engine ~profile:true () in
        let _ = Harness.run_ok e spin_src in
        let heavy = (Engine.profile e).Tprof.Report.total in
        Engine.reset_scope ~slice:true e;
        let _ = Harness.run_ok e good_src in
        let light = (Engine.profile e).Tprof.Report.total in
        checkb "light request retired work" true (light > 0);
        checkb "slice excludes the heavy request" true (light < heavy);
        (* the optimizer's pass counts are sliced too: they equal a
           fresh engine's for the light request alone *)
        let opt_phases e =
          List.filter_map
            (fun (p : Tprof.Report.prow) ->
              if has_prefix ~prefix:"opt." p.Tprof.Report.p_name then
                Some (p.Tprof.Report.p_name, p.Tprof.Report.p_count)
              else None)
            (Engine.profile e).Tprof.Report.phases
        in
        let fresh = Harness.engine ~profile:true () in
        let _ = Harness.run_ok fresh good_src in
        checkb "the light request ran optimizer passes" true
          (opt_phases fresh <> []);
        Alcotest.(check (list (pair string int)))
          "opt.* phases cover one request" (opt_phases fresh) (opt_phases e);
        (* determinism: the same request costs the same slice *)
        Engine.reset_scope ~slice:true e;
        let _ = Harness.run_ok e good_src in
        checki "identical request, identical slice" light
          (Engine.profile e).Tprof.Report.total);
  ]

(* ------------------------------------------------------------------ *)
(* Single requests through the server *)

let serve_tests =
  [
    quick "a good request round-trips with exit 0" (fun () ->
        let s = mk_server () in
        let r = ask s (run_line ~src:good_src ()) in
        checks "schema" "terra-batch-2" (jstr r "schema");
        checks "status" "ok" (jstr r "status");
        checks "output" "42\n" (jstr r "output");
        checks "tenant" "default" (jstr r "tenant");
        checki "exit" 0 (jint r "exit");
        checki "leaked" 0 (jint r "leaked_bytes");
        checkb "not recycled" false (jbool r "recycled");
        checkb "fuel charged" true (jint r "fuel" > 0));
    quick "a checked san failure rolls back verified with exit 2" (fun () ->
        let s = mk_server () in
        let r =
          ask s (run_line ~path:"programs/heap_overflow.t" ~tenant:"carol" ())
        in
        checks "status" "error" (jstr r "status");
        checks "code" "san.heap-overflow" (jstr r "code");
        checki "exit" 2 (jint r "exit");
        checks "rollback" "verified" (jstr r "rollback");
        checki "nothing survives the rollback" 0 (jint r "leaked_bytes"));
    quick "a missing script is batch.io with exit 1" (fun () ->
        let s = mk_server () in
        let r = ask s (run_line ~path:"programs/nonexistent.t" ()) in
        checks "status" "error" (jstr r "status");
        checks "code" "batch.io" (jstr r "code");
        checki "exit" 1 (jint r "exit"));
    quick "an unparseable line is answered, not fatal" (fun () ->
        let s = mk_server () in
        let r = ask s "{broken" in
        checks "status" "error" (jstr r "status");
        checks "code" "serve.bad-request" (jstr r "code");
        checki "exit" 1 (jint r "exit");
        (* the server keeps serving *)
        checks "next request ok" "ok" (jstr (ask s (run_line ~src:good_src ())) "status"));
    quick "an injected transient fault is retried to success" (fun () ->
        let s = mk_server () in
        let r = ask s (run_line ~src:alloc_src ~fail_alloc:1 ()) in
        checks "status" "ok" (jstr r "status");
        checkb "retried" true (jint r "retries" >= 1);
        checkb "attempts" true (jint r "attempts" >= 2);
        checki "exit" 0 (jint r "exit"));
    quick "a fuel-starved request traps and rolls back" (fun () ->
        let s = mk_server () in
        let r = ask s (run_line ~src:spin_src ~fuel:80 ()) in
        checks "status" "error" (jstr r "status");
        checks "code" "trap.fuel" (jstr r "code");
        checki "exit" 2 (jint r "exit");
        checks "rollback" "verified" (jstr r "rollback"));
    quick "a store the journal missed fails the rollback check, exit 3"
      (fun () ->
        (* a journal bug, injected: one unjournaled store, then a trap *)
        let s = mk_server ~pool:1 () in
        let eng = s.Server.pool.Pool.slots.(0).Pool.eng in
        let vm = eng.Engine.ctx.Context.vm in
        let mem = vm.Tvm.Vm.mem in
        let addr = (Tvm.Mem.heap_base mem + Tvm.Mem.heap_limit mem) / 2 in
        Engine.inject eng
          (Tvm.Fault.Stray_store { step = Tvm.Vm.steps vm + 1; addr });
        let r = ask s (run_line ~src:divzero_src ~retries:0 ()) in
        checks "status" "error" (jstr r "status");
        checks "rollback" "failed" (jstr r "rollback");
        checks "code" "serve.fingerprint-mismatch" (jstr r "code");
        checki "exit" 3 (jint r "exit");
        checkb "recycled" true (jbool r "recycled");
        let st = ask s "{\"op\":\"status\"}" in
        checki "recycled_fingerprint" 1
          (jint (jget st "pool") "recycled_fingerprint");
        (* the rebuilt engine serves cleanly *)
        checks "next request ok" "ok"
          (jstr (ask s (run_line ~src:good_src ())) "status"));
    quick "a tenant depth cap applies per request and is restored" (fun () ->
        let budget =
          { Tenant.default_budget with Tenant.max_call_depth = Some 50 }
        in
        let s = mk_server ~budget () in
        let r = ask s (run_line ~src:recur_src ()) in
        checks "status" "error" (jstr r "status");
        checks "code" "trap.stack" (jstr r "code");
        checks "rollback" "verified" (jstr r "rollback");
        (* the engine still serves ordinary traffic afterwards *)
        checks "after" "ok" (jstr (ask s (run_line ~src:good_src ())) "status"));
    quick "status, profile, and breakers ops answer" (fun () ->
        let s = mk_server () in
        let _ = ask s (run_line ~src:good_src ~tenant:"alice" ()) in
        let _ = ask s (run_line ~src:good_src ~tenant:"bob" ()) in
        let st = ask s "{\"op\":\"status\"}" in
        checks "status schema" "terra-serve-1" (jstr st "schema");
        checki "served" 2 (jint st "served");
        checki "live bytes" 0 (jint st "live_bytes");
        checki "tenants listed" 2 (List.length (jlist st "tenants"));
        checki "pool size" 2 (jint (jget st "pool") "size");
        let pr = ask s "{\"op\":\"profile\"}" in
        checki "one profile per engine" 2 (List.length (jlist pr "engines"));
        List.iter
          (fun e ->
            match jget e "profile" with
            | Json.Obj _ -> ()
            | _ -> Alcotest.fail "engine profile is not an object")
          (jlist pr "engines");
        let br = ask s "{\"op\":\"breakers\"}" in
        checks "breakers schema" "terra-serve-1" (jstr br "schema");
        checki "breaker tables listed" 2 (List.length (jlist br "tenants")));
    quick "shutdown drains clean with exit 0" (fun () ->
        let s = mk_server () in
        let _ = ask s (run_line ~src:good_src ()) in
        (match Server.handle s "{\"op\":\"shutdown\"}" with
        | Some (_, `Shutdown) -> ()
        | _ -> Alcotest.fail "shutdown op not recognized");
        let resp, code = Server.drain s ~reason:"shutdown" in
        checki "exit" 0 code;
        checks "drain status" "clean" (jstr resp "status");
        checks "reason" "shutdown" (jstr resp "reason"));
    quick "run_channels serves a session end to end" (fun () ->
        let dir = Filename.temp_file "serve_session" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let in_path = Filename.concat dir "in.jsonl" in
        let out_path = Filename.concat dir "out.jsonl" in
        let oc = open_out in_path in
        output_string oc
          (String.concat "\n"
             [
               "# a comment and a blank line are ignored";
               "";
               run_line ~src:good_src ~tenant:"alice" ();
               "{broken";
               run_line ~path:"programs/leak.t" ~tenant:"frank" ();
               "{\"op\":\"shutdown\"}";
             ]);
        output_char oc '\n';
        close_out oc;
        let s = mk_server () in
        let ic = open_in in_path and oc = open_out out_path in
        let code = Server.run_channels s ic oc in
        close_in ic;
        close_out oc;
        checki "process exit" 0 code;
        let lines = ref [] in
        let ic = open_in out_path in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let lines = List.rev !lines in
        checki "three responses plus the drain" 4 (List.length lines);
        let parsed =
          List.map
            (fun l ->
              match Json.of_string l with
              | Ok j -> j
              | Error m -> Alcotest.failf "unparseable response %S: %s" l m)
            lines
        in
        (match parsed with
        | [ good; bad; leak; drainr ] ->
            checks "good" "ok" (jstr good "status");
            checks "bad" "serve.bad-request" (jstr bad "code");
            checki "leak bytes" 64 (jint leak "leaked_bytes");
            checkb "leaky engine recycled" true (jbool leak "recycled");
            checks "drain op" "shutdown" (jstr drainr "op");
            checks "drain clean" "clean" (jstr drainr "status")
        | _ -> Alcotest.fail "unexpected response shape"));
    quick "end of input drains gracefully too" (fun () ->
        let dir = Filename.temp_file "serve_eof" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let in_path = Filename.concat dir "in.jsonl" in
        let out_path = Filename.concat dir "out.jsonl" in
        let oc = open_out in_path in
        output_string oc (run_line ~src:good_src () ^ "\n");
        close_out oc;
        let s = mk_server () in
        let ic = open_in in_path and oc = open_out out_path in
        let code = Server.run_channels s ic oc in
        close_in ic;
        close_out oc;
        checki "clean eof exit" 0 code;
        let ic = open_in out_path in
        let _first = input_line ic in
        let drain_line = input_line ic in
        close_in ic;
        match Json.of_string drain_line with
        | Ok j -> checks "reason" "eof" (jstr j "reason")
        | Error m -> Alcotest.failf "unparseable drain: %s" m);
    quick "over-long request lines are rejected and service continues"
      (fun () ->
        let dir = Filename.temp_file "serve_longline" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let in_path = Filename.concat dir "in.jsonl" in
        let out_path = Filename.concat dir "out.jsonl" in
        let oc = open_out in_path in
        output_string oc
          (String.concat "\n"
             [
               run_line ~src:good_src ~tenant:"alice" ();
               (* a 4000-byte line: drained unbuffered, never parsed *)
               String.make 4000 'A';
               run_line ~src:good_src ~tenant:"alice" ();
             ]);
        output_char oc '\n';
        close_out oc;
        let config =
          {
            Server.default_config with
            pool_size = 1;
            checked = true;
            max_line_bytes = 512;
          }
        in
        let s = Server.create ~config () in
        let ic = open_in in_path and oc = open_out out_path in
        let code = Server.run_channels s ic oc in
        close_in ic;
        close_out oc;
        checki "clean exit" 0 code;
        let lines = ref [] in
        let ic = open_in out_path in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        (match
           List.rev_map
             (fun l ->
               match Json.of_string l with
               | Ok j -> j
               | Error m -> Alcotest.failf "unparseable response %S: %s" l m)
             !lines
         with
        | [ good1; oversize; good2; drainr ] ->
            checks "first request is fine" "ok" (jstr good1 "status");
            checks "oversize is rejected" "serve.bad-request"
              (jstr oversize "code");
            checks "oversize is an error" "error" (jstr oversize "status");
            checkb "rejection names the true length" true
              (let m = jstr oversize "message" in
               let has_sub sub =
                 let ls = String.length sub and lm = String.length m in
                 let rec go i =
                   i + ls <= lm && (String.sub m i ls = sub || go (i + 1))
                 in
                 go 0
               in
               has_sub "4000" && has_sub "512");
            checks "service continues afterwards" "ok" (jstr good2 "status");
            checks "drain is clean" "clean" (jstr drainr "status")
        | _ -> Alcotest.fail "expected three responses plus the drain");
        checki "all three lines counted as served" 3 s.Server.served);
  ]

(* ------------------------------------------------------------------ *)
(* Admission control *)

let admission_tests =
  [
    quick "a fuel ask over the per-request cap is rejected" (fun () ->
        let budget =
          { Tenant.default_budget with Tenant.fuel_per_request = 1000 }
        in
        let s = mk_server ~budget () in
        let r = ask s (run_line ~src:good_src ~fuel:2000 ()) in
        checks "status" "rejected" (jstr r "status");
        checks "code" "serve.rejected" (jstr r "code");
        checki "exit" 1 (jint r "exit");
        (* rejection costs no engine time *)
        let st = ask s "{\"op\":\"status\"}" in
        List.iter
          (fun slot -> checki "slot untouched" 0 (jint slot "total"))
          (jlist (jget st "pool") "slots");
        (* a within-cap ask still runs *)
        checks "within cap" "ok"
          (jstr (ask s (run_line ~src:good_src ~fuel:1000 ())) "status"));
    quick "the in-flight budget gates admission" (fun () ->
        let budget = { Tenant.default_budget with Tenant.max_inflight = 0 } in
        let s = mk_server ~budget () in
        let r = ask s (run_line ~src:good_src ()) in
        checks "status" "rejected" (jstr r "status");
        checks "code" "serve.rejected" (jstr r "code"));
    quick "the cumulative fuel budget exhausts" (fun () ->
        let budget = { Tenant.default_budget with Tenant.fuel_total = 1 } in
        let s = mk_server ~budget () in
        let r1 = ask s (run_line ~src:spin_src ()) in
        checks "first admitted but starved" "trap.fuel" (jstr r1 "code");
        let r2 = ask s (run_line ~src:good_src ()) in
        checks "second rejected" "serve.rejected" (jstr r2 "code"));
    quick "the memory budget counts committed growth" (fun () ->
        let budget = { Tenant.default_budget with Tenant.mem_bytes = 1 } in
        let s = mk_server ~budget () in
        let r1 = ask s (run_line ~path:"programs/leak.t" ()) in
        checks "first runs" "ok" (jstr r1 "status");
        checki "and leaks" 64 (jint r1 "leaked_bytes");
        let r2 = ask s (run_line ~src:good_src ()) in
        checks "second rejected" "serve.rejected" (jstr r2 "code");
        checkb "reason names the heap" true
          (Harness.contains_sub ~sub:"heap growth" (jstr r2 "message")));
  ]

(* ------------------------------------------------------------------ *)
(* Per-tenant circuit breakers *)

let breaker_tests =
  [
    quick "a hostile tenant trips its breaker; neighbors don't notice"
      (fun () ->
        let s = mk_server () in
        let mallory () =
          ask s (run_line ~src:divzero_src ~retries:0 ~tenant:"mallory" ())
        in
        let alice () =
          ask s (run_line ~src:good_src ~tenant:"alice" ())
        in
        for _ = 1 to 3 do
          let r = mallory () in
          checks "divzero" "trap.divzero" (jstr r "code");
          checks "rolled back" "verified" (jstr r "rollback");
          (* alice interleaves and never sees mallory's failures *)
          checks "alice ok" "ok" (jstr (alice ()) "status")
        done;
        let r = mallory () in
        checks "breaker open" "cb.open" (jstr r "code");
        checki "exit" 2 (jint r "exit");
        checks "alice still ok" "ok" (jstr (alice ()) "status");
        (* the breakers op names the open circuit *)
        let br = ask s "{\"op\":\"breakers\"}" in
        let mallory_entry =
          List.find
            (fun t -> jstr t "tenant" = "mallory")
            (jlist br "tenants")
        in
        let key =
          List.find
            (fun k -> jstr k "key" = "mallory")
            (jlist mallory_entry "keys")
        in
        checks "state" "open" (jstr key "state"));
  ]

(* ------------------------------------------------------------------ *)
(* The soak: >= 1000 mixed requests through one server *)

(* Every slot's fingerprint, kept up to date page by page, must equal a
   re-hash of the whole session state from scratch. *)
let audit_fingerprints (s : Server.t) =
  Array.iter
    (fun (slot : Pool.slot) ->
      let vm = slot.Pool.eng.Engine.ctx.Context.vm in
      let cached = Tvm.Vm.fingerprint vm in
      checks
        (Printf.sprintf "slot %d fingerprint = from scratch" slot.Pool.id)
        (Tvm.Vm.fingerprint ~from_scratch:true vm)
        cached)
    s.Server.pool.Pool.slots

let soak_tests =
  [
    quick "1050 mixed requests: stable, leak-free, fault-isolated"
      (fun () ->
        (* a from-scratch fingerprint hashes the whole arena and shadow
           map, so the audited engines get a 10 MiB arena *)
        let s = mk_server ~pool:2 ~recycle:40 ~mem_bytes:(10 lsl 20) () in
        let san =
          [|
            "programs/heap_overflow.t";
            "programs/use_after_free.t";
            "programs/double_free.t";
            "programs/invalid_free.t";
          |]
        in
        let n = 1050 in
        let goods = ref 0
        and sans = ref 0
        and fuels = ref 0
        and chaos = ref 0
        and divzeros = ref 0
        and cb_opens = ref 0
        and carol_cb = ref 0
        and dave_cb = ref 0
        and leaks = ref 0 in
        let stable = ref true in
        for i = 0 to n - 1 do
          if i mod 50 = 0 then audit_fingerprints s;
          if i mod 97 = 13 then begin
            (* a leaky tenant: reported once, engine recycled, exit
               parity with checked one-shot terra_run (leak => 2) *)
            let r =
              ask s (run_line ~path:"programs/leak.t" ~tenant:"frank" ())
            in
            incr leaks;
            checks "leak status" "ok" (jstr r "status");
            checki "leak exit" 2 (jint r "exit");
            checki "leak bytes" 64 (jint r "leaked_bytes");
            checkb "leak recycles" true (jbool r "recycled")
          end
          else
            match i mod 7 with
            | 1 ->
                let r =
                  ask s (run_line ~path:san.(i mod 4) ~tenant:"carol" ())
                in
                checks "san status" "error" (jstr r "status");
                checki "san exit" 2 (jint r "exit");
                checks "san rollback" "verified" (jstr r "rollback");
                checki "san leaves nothing" 0 (jint r "leaked_bytes");
                (* carol fails every request, so her breaker opens after
                   the threshold and only half-open probes run for real *)
                (match jstr r "code" with
                | "cb.open" -> incr carol_cb
                | c when has_prefix ~prefix:"san." c -> incr sans
                | c -> Alcotest.failf "unexpected san code %s" c)
            | 2 ->
                let r =
                  ask s (run_line ~src:spin_src ~fuel:80 ~tenant:"dave" ())
                in
                checki "fuel exit" 2 (jint r "exit");
                checks "fuel rollback" "verified" (jstr r "rollback");
                (match jstr r "code" with
                | "cb.open" -> incr dave_cb
                | "trap.fuel" -> incr fuels
                | c -> Alcotest.failf "unexpected fuel code %s" c)
            | 4 ->
                let r =
                  ask s
                    (run_line ~src:alloc_src ~fail_alloc:1 ~tenant:"erin" ())
                in
                incr chaos;
                checks "chaos recovers" "ok" (jstr r "status");
                checkb "chaos retried" true (jint r "retries" >= 1);
                checki "chaos exit" 0 (jint r "exit");
                checki "chaos leaves nothing" 0 (jint r "leaked_bytes")
            | 6 ->
                let r =
                  ask s
                    (run_line ~src:divzero_src ~retries:0 ~tenant:"mallory" ())
                in
                checks "mallory status" "error" (jstr r "status");
                checki "mallory exit" 2 (jint r "exit");
                checks "mallory rollback" "verified" (jstr r "rollback");
                (match jstr r "code" with
                | "cb.open" -> incr cb_opens
                | "trap.divzero" -> incr divzeros
                | c -> Alcotest.failf "unexpected mallory code %s" c)
            | _ ->
                let r = ask s (run_line ~src:good_src ~tenant:"alice" ()) in
                incr goods;
                checks "good status" "ok" (jstr r "status");
                checki "good exit" 0 (jint r "exit");
                checki "good leaves nothing" 0 (jint r "leaked_bytes");
                if jstr r "output" <> "42\n" then stable := false
        done;
        audit_fingerprints s;
        checkb "soak size" true (n >= 1000);
        checkb "every class exercised" true
          (!goods > 100
          && !sans + !carol_cb > 100
          && !fuels + !dave_cb > 100
          && !chaos > 100 && !leaks >= 10);
        checkb "good outputs byte-stable across the run" true !stable;
        checkb "real san faults surfaced" true (!sans >= 3);
        checkb "real fuel traps surfaced" true (!fuels >= 3);
        checkb "mallory tripped real faults first" true (!divzeros >= 3);
        (* three independently hostile tenants, three open breakers *)
        checkb "mallory's breaker opened" true (!cb_opens > 0);
        checkb "carol's breaker opened" true (!carol_cb > 0);
        checkb "dave's breaker opened" true (!dave_cb > 0);
        (* zero leak growth across the pool: every leak was contained
           by a recycle, everything else cleaned up after itself *)
        checki "pool live bytes" 0 (Pool.live_bytes s.Server.pool);
        let st = ask s "{\"op\":\"status\"}" in
        checki "every request served" n (jint st "served");
        let pool_j = jget st "pool" in
        checkb "wear recycling happened" true
          (jint pool_j "recycled_wear" > 0);
        checkb "every leak forced a recycle" true
          (jint pool_j "recycled_leak" >= !leaks);
        checki "no failed rollback ever" 0
          (jint pool_j "recycled_fingerprint");
        (* graceful drain: pool clean, process exit 0 *)
        (match Server.handle s "{\"op\":\"shutdown\"}" with
        | Some (_, `Shutdown) -> ()
        | _ -> Alcotest.fail "shutdown op not recognized");
        let resp, code = Server.drain s ~reason:"shutdown" in
        checki "drain exit" 0 code;
        checks "drain status" "clean" (jstr resp "status"));
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("hygiene", hygiene_tests);
      ("serve", serve_tests);
      ("admission", admission_tests);
      ("breakers", breaker_tests);
      ("soak", soak_tests);
    ]
