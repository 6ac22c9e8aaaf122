(* TerraSan: the memory-safety sanitizer and fault-injection harness.

   Three layers are exercised: the shadow-mapped allocator directly
   (precise violation records), the engine boundary (golden buggy
   programs produce san.* diagnostics under checked execution and still
   run — or trap coarsely — unchecked), and Lua fault isolation (pcall
   observes every sanitizer and injected-fault class and the engine
   keeps working afterwards). *)

module Mem = Tvm.Mem
module Alloc = Tvm.Alloc
module Shadow = Tvm.Shadow
module Fault = Tvm.Fault
open Terra

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let quick = Harness.quick

let checked_alloc ?quarantine () =
  let mem = Mem.create () in
  let a = Alloc.create ~checked:true ?quarantine mem in
  (mem, a)

(* Run f and return the sanitizer violation it must raise. *)
let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a sanitizer violation" name
  | exception Shadow.Violation v -> v

(* ------------------------------------------------------------------ *)
(* Shadow-mapped allocator *)

let alloc_tests =
  [
    quick "store past the end hits the redzone" (fun () ->
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 40 in
        (* the last in-bounds i32 is fine *)
        Mem.set_i32 mem (p + 36) 7l;
        let v =
          expect_violation "overflow" (fun () -> Mem.set_i32 mem (p + 40) 7l)
        in
        checks "kind" "san.heap-overflow" (Shadow.kind_code v.Shadow.vkind);
        checki "access size" 4 v.Shadow.vlen;
        checkb "owning block recorded" true (v.Shadow.vblock = Some (p, 40)));
    quick "one-byte overrun is caught despite rounding" (fun () ->
        (* 17 bytes rounds to 32, but the slack is poisoned as redzone *)
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 17 in
        Mem.set_u8 mem (p + 16) 1;
        let v =
          expect_violation "overrun" (fun () -> Mem.set_u8 mem (p + 17) 1)
        in
        checks "kind" "san.heap-overflow" (Shadow.kind_code v.Shadow.vkind));
    quick "load through a dangling pointer" (fun () ->
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 16 in
        Mem.set_i32 mem p 1l;
        Alloc.free a p;
        let v = expect_violation "uaf" (fun () -> Mem.get_i32 mem p) in
        checks "kind" "san.use-after-free" (Shadow.kind_code v.Shadow.vkind);
        checkb "names the freed block" true (v.Shadow.vblock = Some (p, 16)));
    quick "double free" (fun () ->
        let _, a = checked_alloc () in
        let p = Alloc.malloc a 16 in
        Alloc.free a p;
        let v = expect_violation "df" (fun () -> Alloc.free a p) in
        checkb "kind" true (v.Shadow.vkind = Shadow.Double_free);
        checks "code" "san.double-free" (Shadow.kind_code v.Shadow.vkind));
    quick "free of an interior pointer" (fun () ->
        let _, a = checked_alloc () in
        let p = Alloc.malloc a 16 in
        let v = expect_violation "inv" (fun () -> Alloc.free a (p + 4)) in
        checkb "kind" true (v.Shadow.vkind = Shadow.Invalid_free);
        checkb "names the enclosing block" true
          (v.Shadow.vblock = Some (p, 16)));
    quick "quarantine keeps freed blocks poisoned" (fun () ->
        (* default (large) quarantine: the block stays Freed *)
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 32 in
        Alloc.free a p;
        let v = expect_violation "uaf" (fun () -> Mem.get_u8 mem p) in
        checkb "still use-after-free" true
          (v.Shadow.vkind = Shadow.Use_after_free));
    quick "drained quarantine downgrades to oob and recycles" (fun () ->
        (* zero budget: every free drains immediately *)
        let mem, a = checked_alloc ~quarantine:0 () in
        let p = Alloc.malloc a 32 in
        Alloc.free a p;
        let v = expect_violation "stale" (fun () -> Mem.get_u8 mem p) in
        checkb "stale pointer reads as oob" true (v.Shadow.vkind = Shadow.Oob);
        (* the space is genuinely recycled: allocator bookkeeping is empty
           and a fresh allocation still succeeds *)
        checki "nothing live" 0 (Alloc.live_blocks a);
        let q = Alloc.malloc a 32 in
        Mem.set_u8 mem q 1;
        checki "fresh block usable" 1 (Mem.get_u8 mem q));
    quick "freeing a drained pointer is invalid-free, not double-free"
      (fun () ->
        let _, a = checked_alloc ~quarantine:0 () in
        let p = Alloc.malloc a 32 in
        Alloc.free a p;
        let v = expect_violation "stale free" (fun () -> Alloc.free a p) in
        checkb "kind" true (v.Shadow.vkind = Shadow.Invalid_free));
    quick "realloc shrinks in place and re-poisons the slack" (fun () ->
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 64 in
        Mem.set_i32 mem p 42l;
        let q = Alloc.realloc a p 16 in
        checki "same payload address" p q;
        checki "requested size updated" 16 (Alloc.block_size a p);
        checkb "contents kept" true (Mem.get_i32 mem p = 42l);
        let v =
          expect_violation "slack poisoned" (fun () ->
              Mem.set_u8 mem (p + 20) 1)
        in
        checkb "past new size is overflow" true
          (v.Shadow.vkind = Shadow.Heap_overflow));
    quick "realloc grow copies only the requested bytes" (fun () ->
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 16 in
        Mem.set_i32 mem p 7l;
        Mem.set_i32 mem (p + 12) 9l;
        let q = Alloc.realloc a p 4096 in
        checkb "moved" true (q <> p);
        checkb "prefix copied" true
          (Mem.get_i32 mem q = 7l && Mem.get_i32 mem (q + 12) = 9l);
        (* the old block is now poisoned *)
        let v = expect_violation "old freed" (fun () -> Mem.get_u8 mem p) in
        checkb "uaf on old block" true
          (v.Shadow.vkind = Shadow.Use_after_free));
    quick "realloc of an invalid pointer (checked)" (fun () ->
        let mem, a = checked_alloc () in
        let v =
          expect_violation "bad realloc" (fun () ->
              Alloc.realloc a (Mem.heap_base mem + 48) 32)
        in
        checkb "kind" true (v.Shadow.vkind = Shadow.Invalid_realloc);
        checks "maps to invalid-free code" "san.invalid-free"
          (Shadow.kind_code v.Shadow.vkind));
    quick "leaks reports requested sizes" (fun () ->
        let _, a = checked_alloc () in
        let p = Alloc.malloc a 40 in
        let _q = Alloc.malloc a 7 in
        Alloc.free a p;
        match List.sort compare (Alloc.leaks a) with
        | [ (_, 7) ] -> ()
        | l -> Alcotest.failf "unexpected leak set (%d entries)" (List.length l));
  ]

(* unchecked-mode satellite fixes ride the same allocator *)
let unchecked_tests =
  [
    quick "realloc of an invalid pointer raises Invalid_realloc" (fun () ->
        let mem = Mem.create () in
        let a = Alloc.create mem in
        let bogus = Mem.heap_base mem + 48 in
        match Alloc.realloc a bogus 32 with
        | _ -> Alcotest.fail "expected Invalid_realloc"
        | exception Alloc.Invalid_realloc addr -> checki "address" bogus addr);
    quick "realloc shrink stays in place and returns the tail" (fun () ->
        let mem = Mem.create () in
        let a = Alloc.create mem in
        let p = Alloc.malloc a 256 in
        Mem.set_i32 mem p 5l;
        let before = Alloc.live_bytes a in
        let q = Alloc.realloc a p 16 in
        checki "in place" p q;
        checkb "contents kept" true (Mem.get_i32 mem p = 5l);
        checkb "bytes returned to the free list" true
          (Alloc.live_bytes a < before));
  ]

(* ------------------------------------------------------------------ *)
(* Mem hardening + fault primitives *)

let mem_fault_tests =
  [
    quick "poisoned byte faults under checked execution" (fun () ->
        let mem, a = checked_alloc () in
        let p = Alloc.malloc a 16 in
        Mem.set_u8 mem p 3;
        (match Mem.shadow mem with
        | Some sh -> Shadow.poison sh p
        | None -> Alcotest.fail "checked mem has no shadow");
        let v = expect_violation "poisoned" (fun () -> Mem.get_u8 mem p) in
        checkb "reads as oob" true (v.Shadow.vkind = Shadow.Oob));
    quick "corrupt_byte silently flips memory when unchecked" (fun () ->
        let mem = Mem.create () in
        let a = Alloc.create mem in
        let p = Alloc.malloc a 16 in
        Mem.set_u8 mem p 3;
        Mem.corrupt_byte mem p;
        checki "bit-flipped value read back" 0xA5 (Mem.get_u8 mem p));
    quick "fail-alloc spec fires on the exact ordinal" (fun () ->
        let f = Fault.create [ Fault.Fail_alloc 3 ] in
        Fault.on_alloc f;
        Fault.on_alloc f;
        (match Fault.on_alloc f with
        | () -> Alcotest.fail "expected Injected"
        | exception Fault.Injected (spec, _) ->
            checks "code" "fault.alloc" (Fault.code spec));
        (* one-shot: the 4th allocation proceeds *)
        Fault.on_alloc f);
    quick "trap-at-step spec fires once at its step" (fun () ->
        let mem = Mem.create () in
        let f = Fault.create [ Fault.Trap_at_step 5 ] in
        checki "armed" 5 (Fault.next_step f);
        Fault.fire_step f mem 4;
        (match Fault.fire_step f mem 5 with
        | () -> Alcotest.fail "expected Injected"
        | exception Fault.Injected (spec, _) ->
            checks "code" "fault.trap" (Fault.code spec));
        Fault.fire_step f mem 6;
        checki "disarmed" max_int (Fault.next_step f));
  ]

(* ------------------------------------------------------------------ *)
(* Golden buggy programs through the engine *)

let engine = Harness.engine
let run_golden = Harness.run_golden

(* checked run must fail with exactly this san.* code, and the code must
   be in the exit-2 (runtime fault) class *)
let checked_fails name code () =
  match run_golden ~checked:true name with
  | _, Ok _ -> Alcotest.failf "%s: expected %s, got Ok" name code
  | _, Error d ->
      checks (name ^ " code") code d.Diag.code;
      checkb (name ^ " exits 2") true (Diag.is_runtime_fault d)

(* unchecked, the same program must behave as stated: run to completion,
   or trip the coarse hardened-allocator trap *)
let unchecked_gives name expect () =
  match (run_golden ~checked:false name, expect) with
  | (_, Ok _), None -> ()
  | (_, Error d), Some code -> checks (name ^ " code") code d.Diag.code
  | (_, Ok _), Some code -> Alcotest.failf "%s: expected %s, got Ok" name code
  | (_, Error d), None ->
      Alcotest.failf "%s: expected Ok, got %s" name (Diag.to_string d)

let golden_tests =
  [
    quick "heap_overflow.t checked"
      (checked_fails "heap_overflow.t" "san.heap-overflow");
    quick "heap_overflow.t unchecked runs"
      (unchecked_gives "heap_overflow.t" None);
    quick "use_after_free.t checked"
      (checked_fails "use_after_free.t" "san.use-after-free");
    quick "use_after_free.t unchecked runs"
      (unchecked_gives "use_after_free.t" None);
    quick "double_free.t checked"
      (checked_fails "double_free.t" "san.double-free");
    quick "double_free.t unchecked traps coarsely"
      (unchecked_gives "double_free.t" (Some "trap.free"));
    quick "invalid_free.t checked"
      (checked_fails "invalid_free.t" "san.invalid-free");
    quick "invalid_free.t unchecked traps coarsely"
      (unchecked_gives "invalid_free.t" (Some "trap.free"));
    quick "leak.t checked: program succeeds, shutdown reports the leak"
      (fun () ->
        match run_golden ~checked:true "leak.t" with
        | e, Ok _ -> (
            match Engine.leak_diag e with
            | Some d ->
                checks "code" "san.leak" d.Diag.code;
                checkb "exit-2 class" true (Diag.is_runtime_fault d);
                checkb "reports the 64 bytes" true
                  (Engine.leak_report e = [ (fst (List.hd (Engine.leak_report e)), 64) ])
            | None -> Alcotest.fail "expected a leak diagnostic")
        | _, Error d -> Alcotest.failf "leak.t: %s" (Diag.to_string d));
    quick "leak.t unchecked is silent" (unchecked_gives "leak.t" None);
    quick "clean program has no leak diagnostic" (fun () ->
        let src =
          {|
            local std = terralib.includec("stdlib.h")
            terra f()
              var p = std.malloc(128)
              std.free(p)
              return 0
            end
            f()
          |}
        in
        (* paper_surface.t is left out: it keeps DataTable columns and
           Orion images alive until engine teardown *)
        List.iter
          (fun (name, src) ->
            let e = engine ~checked:true () in
            match Engine.run_capture_protected e src with
            | _, Ok _ ->
                checkb (name ^ ": no leak") true (Engine.leak_diag e = None)
            | _, Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d))
          [
            ("free", src);
            ("mandelbrot.t", Harness.read_file (Harness.example "mandelbrot.t"));
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Lua fault isolation: pcall observes, engine survives *)

(* Wrap a buggy terra call in pcall; print err.code; then prove the
   engine still compiles and runs fresh Terra code. *)
let pcall_recovers name body code () =
  let e = engine ~checked:true () in
  let src =
    Printf.sprintf
      {|
        local std = terralib.includec("stdlib.h")
        %s
        local ok, err = pcall(function() return bug() end)
        print(ok, err.phase, err.code)
        terra fine() return 41 + 1 end
        print(fine())
      |}
      body
  in
  match Engine.run_capture_protected e src with
  | out, Ok _ ->
      checks name (Printf.sprintf "false\trun\t%s\n42\n" code) out
  | _, Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d)

let overflow_body =
  {|terra bug()
      var p = [&int32](std.malloc(40))
      p[10] = 7
      return 0
    end|}

let uaf_body =
  {|terra bug()
      var p = [&int32](std.malloc(16))
      std.free([&uint8](p))
      return p[0]
    end|}

let df_body =
  {|terra bug()
      var p = std.malloc(16)
      std.free(p)
      std.free(p)
      return 0
    end|}

let invfree_body =
  {|terra bug()
      var p = std.malloc(16)
      std.free(p + 4)
      return 0
    end|}

let isolation_tests =
  [
    quick "pcall catches san.heap-overflow"
      (pcall_recovers "overflow" overflow_body "san.heap-overflow");
    quick "pcall catches san.use-after-free"
      (pcall_recovers "uaf" uaf_body "san.use-after-free");
    quick "pcall catches san.double-free"
      (pcall_recovers "double free" df_body "san.double-free");
    quick "pcall catches san.invalid-free"
      (pcall_recovers "invalid free" invfree_body "san.invalid-free");
    quick "pcall catches an injected allocation failure" (fun () ->
        let e = engine ~faults:[ Fault.Fail_alloc 1 ] () in
        let src =
          {|
            local std = terralib.includec("stdlib.h")
            terra bug() return std.malloc(16) end
            local ok, err = pcall(function() return bug() end)
            print(ok, err.code)
            terra fine() return 1 end
            print(fine())
          |}
        in
        (match Engine.run_capture_protected e src with
        | out, Ok _ -> checks "alloc fault" "false\tfault.alloc\n1\n" out
        | _, Error d -> Alcotest.failf "alloc fault: %s" (Diag.to_string d)));
    quick "pcall catches an injected step trap" (fun () ->
        let e = engine () in
        let src =
          {|
            terra spin()
              var s = 0
              for i = 0, 10000 do s = s + i end
              return s
            end
            local ok, err = pcall(function() return spin() end)
            print(ok, err.code)
            terra fine() return 2 end
            print(fine())
          |}
        in
        Engine.inject e (Fault.Trap_at_step 100);
        (match Engine.run_capture_protected e src with
        | out, Ok _ -> checks "step trap" "false\tfault.trap\n2\n" out
        | _, Error d -> Alcotest.failf "step trap: %s" (Diag.to_string d)));
    quick "terralib.issanitized and leakcheck" (fun () ->
        let e = engine ~checked:true () in
        let src =
          {|
            print(terralib.issanitized())
            local std = terralib.includec("stdlib.h")
            terra alloc() return std.malloc(40) end
            local p = alloc()
            print(terralib.leakcheck())
          |}
        in
        (match Engine.run_capture_protected e src with
        | out, Ok _ -> checks "lua hooks" "true\n1\t40\n" out
        | _, Error d -> Alcotest.failf "lua hooks: %s" (Diag.to_string d)));
    quick "issanitized is false unchecked" (fun () ->
        let e = engine () in
        match Engine.run_capture_protected e "print(terralib.issanitized())" with
        | out, Ok _ -> checks "unsanitized" "false\n" out
        | _, Error d -> Alcotest.failf "unsanitized: %s" (Diag.to_string d));
    quick "checked execution retires the same instructions" (fun () ->
        (* the overhead story: TerraSan is host-side, so fuel use is
           identical *)
        let src =
          {|
            local std = terralib.includec("stdlib.h")
            terra work()
              var p = [&int32](std.malloc(400))
              var s : int32 = 0
              for i = 0, 100 do p[i] = i end
              for i = 0, 100 do s = s + p[i] end
              std.free([&uint8](p))
              return s
            end
            print(work())
          |}
        in
        let run src checked =
          let e = engine ~checked () in
          match Engine.run_capture_protected e src with
          | out, Ok _ -> (out, Engine.fuel_used e)
          | _, Error d -> Alcotest.failf "overhead: %s" (Diag.to_string d)
        in
        List.iter
          (fun (name, src) ->
            let out, fuel = run src false in
            let out', fuel' = run src true in
            checks (name ^ ": same output") out out';
            checki (name ^ ": same fuel") fuel fuel')
          (("work", src)
          :: List.map
               (fun name -> (name, Harness.read_file (Harness.example name)))
               [ "mandelbrot.t"; "paper_surface.t" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Fuzz: random malloc/free/store traffic under checked execution *)

type fuzz_op = Fmalloc of int | Ffree | Ffree_stale | Fstore of int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (3, map (fun n -> Fmalloc n) (int_range 0 96));
           (2, return Ffree);
           (1, return Ffree_stale);
           (4, map (fun off -> Fstore off) (int_range (-24) 160));
         ]))

let pp_ops ops =
  String.concat ";"
    (List.map
       (function
         | Fmalloc n -> Printf.sprintf "m%d" n
         | Ffree -> "f"
         | Ffree_stale -> "fs"
         | Fstore off -> Printf.sprintf "s%d" off)
       ops)

(* Interpret the ops against a checked allocator, tracking a model of
   live and freed blocks. The properties: an in-bounds store never
   faults, a stale free always faults as a double free, and nothing but
   Shadow.Violation ever escapes the checked heap. *)
let prop_checked_traffic =
  QCheck.Test.make ~count:120 ~name:"checked heap: fuzzed malloc/free/store"
    (QCheck.make ~print:pp_ops gen_ops) (fun ops ->
      let mem, a = checked_alloc () in
      let live = ref [] and stale = ref [] in
      let pick l i = List.nth l (i mod List.length l) in
      List.iteri
        (fun i op ->
          match op with
          | Fmalloc n ->
              let p = Alloc.malloc a n in
              live := (p, n) :: !live
          | Ffree when !live <> [] ->
              let p, n = pick !live i in
              Alloc.free a p;
              live := List.filter (fun (q, _) -> q <> p) !live;
              stale := (p, n) :: !stale
          | Ffree -> ()
          | Ffree_stale when !stale <> [] -> (
              let p, _ = pick !stale i in
              match Alloc.free a p with
              | () ->
                  QCheck.Test.fail_reportf "stale free of %#x not caught" p
              | exception Shadow.Violation v ->
                  if v.Shadow.vkind <> Shadow.Double_free then
                    QCheck.Test.fail_reportf "stale free: wrong kind")
          | Ffree_stale -> ()
          | Fstore off when !live <> [] -> (
              let p, n = pick !live i in
              match Mem.set_u8 mem (p + off) 0xAB with
              | () ->
                  if off >= 0 && off < n then ()
                    (* out-of-bounds stores may legally land in another
                       live block; no assertion either way *)
              | exception Shadow.Violation _ ->
                  if off >= 0 && off < n then
                    QCheck.Test.fail_reportf
                      "in-bounds store faulted: %#x+%d of %d" p off n
              | exception Mem.Fault _ -> ())
          | Fstore _ -> ())
        ops;
      (* the model and the allocator agree about what is live *)
      List.length !live = Alloc.live_blocks a)

(* ------------------------------------------------------------------ *)
(* Fuzz: crash consistency of transactional calls.  Inject a fault at a
   randomized point inside Engine.call_transactional and require the
   rollback to restore the session exactly: heap bytes, allocator
   bookkeeping, shadow map, and leak accounting all fingerprint-equal to
   the pre-call snapshot, and the engine still works afterwards. *)

let txn_churn_src =
  {|
    local std = terralib.includec("stdlib.h")
    terra churn(n : int32)
      var acc : int32 = 0
      for i = 0, n do
        var p = [&int32](std.malloc(24 + 8 * (i % 7)))
        p[0] = i
        acc = acc + p[0]
        if i % 3 == 0 then
          std.free([&uint8](p))
        end
      end
      return acc
    end
  |}

let gen_inject =
  QCheck.Gen.(pair bool (int_range 1 60))

let pp_inject (alloc_fault, k) =
  Printf.sprintf "%s@%d" (if alloc_fault then "fail-alloc" else "trap-at-step") k

let prop_txn_crash_consistency =
  QCheck.Test.make ~count:40
    ~name:"transactional call: fault at a random point rolls back exactly"
    (QCheck.make ~print:pp_inject gen_inject) (fun (alloc_fault, k) ->
      let e = engine ~checked:true () in
      (match Engine.run_capture_protected e txn_churn_src with
      | _, Ok _ -> ()
      | _, Error d -> QCheck.Test.fail_reportf "setup: %s" (Diag.to_string d));
      (* warm up outside the transaction: compiles churn and commits a
         baseline of leaked blocks *)
      (match Engine.call_transactional e "churn" [ Mlua.Value.Num 4. ] with
      | Ok _ -> ()
      | Error d -> QCheck.Test.fail_reportf "warmup: %s" (Diag.to_string d));
      let vm = e.Engine.ctx.Context.vm in
      let mark = Engine.statics_mark e in
      let fp0 = Engine.fingerprint ~statics_upto:mark e in
      let leaks0 = Engine.leak_report e in
      Engine.inject e
        (if alloc_fault then Fault.Fail_alloc (1 + (k mod 20))
         else Fault.Trap_at_step (Tvm.Vm.steps vm + k));
      match Engine.call_transactional e "churn" [ Mlua.Value.Num 40. ] with
      | Ok _ ->
          (* the fault landed beyond the call; the txn legitimately
             committed, so there is nothing to compare *)
          true
      | Error d ->
          if not (Diag.is_runtime_fault d) then
            QCheck.Test.fail_reportf "unexpected diagnostic: %s"
              (Diag.to_string d);
          let fp1 = Engine.fingerprint ~statics_upto:mark e in
          if fp0 <> fp1 then
            QCheck.Test.fail_reportf
              "rollback changed the session: %s -> %s (fault %s)" fp0 fp1
              (pp_inject (alloc_fault, k));
          if leaks0 <> Engine.leak_report e then
            QCheck.Test.fail_reportf "leak accounting changed after rollback";
          (* the session survives: the same call succeeds afterwards *)
          (match Engine.call_transactional e "churn" [ Mlua.Value.Num 4. ] with
          | Ok _ -> ()
          | Error d ->
              QCheck.Test.fail_reportf "post-rollback call failed: %s"
                (Diag.to_string d));
          true)

let () =
  Alcotest.run "san"
    [
      ("alloc", alloc_tests);
      ("unchecked", unchecked_tests);
      ("mem+fault", mem_fault_tests);
      ("golden", golden_tests);
      ("isolation", isolation_tests @ [ QCheck_alcotest.to_alcotest prop_checked_traffic ]);
      ("txn-fuzz", [ QCheck_alcotest.to_alcotest prop_txn_crash_consistency ]);
    ]
