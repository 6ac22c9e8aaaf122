(* Tests for the evaluation applications: the GEMM auto-tuner, the Orion
   stencil DSL, the class system, and the AoS/SoA data tables. *)

open Terra

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))
let quick name f = Alcotest.test_case name `Quick f

let small_ctx () =
  Context.create
    ~machine:(Tmachine.Machine.create Tmachine.Config.ivybridge_like)
    ()

(* ------------------------------------------------------------------ *)
(* GEMM *)

let gemm_correct ~elem params n () =
  let ctx = small_ctx () in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let reference = Tuner.Gemm.reference ctx ~elem m in
  let kernel = Tuner.Gemm.genkernel ctx ~elem params in
  let driver =
    Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:params.Tuner.Gemm.nb
  in
  ignore (Tuner.Gemm.run_gemm ctx driver m);
  let err = Tuner.Gemm.max_error ctx ~elem m reference in
  let tol = if elem = Types.float_ then 1e-2 else 1e-9 in
  checkb "matches reference" true (err < tol)

let prop_genkernel_correct =
  QCheck.Test.make ~count:12 ~name:"genkernel correct over random params"
    QCheck.(quad (int_range 0 2) (int_range 0 3) (int_range 0 1) (int_range 0 1))
    (fun (nbi, rmi, rni, vi) ->
      let nb = List.nth [ 16; 24; 48 ] nbi in
      let rm = List.nth [ 1; 2; 4; 8 ] rmi in
      let rn = List.nth [ 1; 2 ] rni in
      let v = List.nth [ 2; 4 ] vi in
      QCheck.assume (nb mod rm = 0 && nb mod (rn * v) = 0);
      let ctx = small_ctx () in
      let elem = Types.double in
      let m = Tuner.Gemm.alloc_matrices ctx ~elem 48 in
      Tuner.Gemm.fill_matrices ctx ~elem m;
      let reference = Tuner.Gemm.reference ctx ~elem m in
      let kernel = Tuner.Gemm.genkernel ctx ~elem { Tuner.Gemm.nb; rm; rn; v } in
      let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb in
      ignore (Tuner.Gemm.run_gemm ctx driver m);
      Tuner.Gemm.max_error ctx ~elem m reference < 1e-9)

let gemm_tests =
  [
    quick "naive matches reference" (fun () ->
        let ctx = small_ctx () in
        let elem = Types.double in
        let m = Tuner.Gemm.alloc_matrices ctx ~elem 32 in
        Tuner.Gemm.fill_matrices ctx ~elem m;
        let reference = Tuner.Gemm.reference ctx ~elem m in
        ignore (Tuner.Gemm.run_gemm ctx (Tuner.Gemm.naive ctx ~elem) m);
        checkb "err" true (Tuner.Gemm.max_error ctx ~elem m reference < 1e-9));
    quick "blocked-scalar matches reference" (fun () ->
        let ctx = small_ctx () in
        let elem = Types.double in
        let m = Tuner.Gemm.alloc_matrices ctx ~elem 48 in
        Tuner.Gemm.fill_matrices ctx ~elem m;
        let reference = Tuner.Gemm.reference ctx ~elem m in
        ignore
          (Tuner.Gemm.run_gemm ctx (Tuner.Gemm.blocked_scalar ctx ~elem ~nb:16) m);
        checkb "err" true (Tuner.Gemm.max_error ctx ~elem m reference < 1e-9));
    quick "figure-5 kernel dgemm"
      (gemm_correct ~elem:Types.double { Tuner.Gemm.nb = 24; rm = 4; rn = 2; v = 2 } 48);
    quick "figure-5 kernel sgemm"
      (gemm_correct ~elem:Types.float_ { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 4 } 48);
    quick "spilled kernel still correct"
      (gemm_correct ~elem:Types.double { Tuner.Gemm.nb = 48; rm = 8; rn = 2; v = 4 } 48);
    quick "legacy-mix kernel still correct" (fun () ->
        let ctx = small_ctx () in
        let elem = Types.float_ in
        let m = Tuner.Gemm.alloc_matrices ctx ~elem 32 in
        Tuner.Gemm.fill_matrices ctx ~elem m;
        let reference = Tuner.Gemm.reference ctx ~elem m in
        let kernel =
          Tuner.Gemm.genkernel ctx ~elem ~legacy_mix:true
            { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 4 }
        in
        ignore
          (Tuner.Gemm.run_gemm ctx
             (Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:16)
             m);
        checkb "err" true (Tuner.Gemm.max_error ctx ~elem m reference < 1e-2));
    quick "invalid params rejected" (fun () ->
        let ctx = small_ctx () in
        checkb "raises" true
          (match
             Tuner.Gemm.genkernel ctx ~elem:Types.double
               { Tuner.Gemm.nb = 20; rm = 3; rn = 1; v = 4 }
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    quick "search finds a valid config" (fun () ->
        let machine =
          Tmachine.Machine.create
            (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
        in
        let ctx = Context.create ~machine () in
        let space =
          [
            { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 2 };
            { Tuner.Gemm.nb = 24; rm = 4; rn = 1; v = 4 };
            { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 };
          ]
        in
        let results =
          Tuner.Search.search ~space:(Some space) ~test_n:48 ctx
            ~elem:Types.double ()
        in
        checki "all evaluated" 3 (List.length results);
        let best = Tuner.Search.best results in
        checkb "best is first" true
          (List.for_all
             (fun c -> c.Tuner.Search.gflops <= best.Tuner.Search.gflops)
             results));
    quick "parallel search matches sequential exactly" (fun () ->
        (* each candidate measures in a private context, so the ranked
           results of search_par must equal sequential search bit for
           bit, at any worker count *)
        let make_ctx () =
          Context.create
            ~machine:
              (Tmachine.Machine.create
                 (Tmachine.Config.scaled Tmachine.Config.ivybridge_like))
            ()
        in
        let space =
          [
            { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 2 };
            { Tuner.Gemm.nb = 24; rm = 4; rn = 1; v = 4 };
            { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 };
            { Tuner.Gemm.nb = 16; rm = 1; rn = 1; v = 2 };
          ]
        in
        let elem = Types.double in
        let seq =
          List.map
            (fun p ->
              Tuner.Search.search ~space:(Some [ p ]) ~test_n:48 (make_ctx ())
                ~elem ())
            space
          |> List.concat
          |> List.sort (fun a b ->
                 compare b.Tuner.Search.gflops a.Tuner.Search.gflops)
        in
        let par =
          Tuner.Search.search_par ~space:(Some space) ~test_n:48 ~jobs:3
            ~make_ctx ~elem ()
        in
        checki "same count" (List.length seq) (List.length par);
        List.iter2
          (fun (a : Tuner.Search.candidate) (b : Tuner.Search.candidate) ->
            checkb "params" true (a.cparams = b.cparams);
            Alcotest.(check (float 0.0)) "gflops" a.gflops b.gflops;
            checkb "spilled" a.spilled b.spilled)
          seq par);
    quick "fault injection: a trapping candidate cannot sink the search"
      (fun () ->
        let machine =
          Tmachine.Machine.create
            (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
        in
        let ctx = Context.create ~machine () in
        let elem = Types.double in
        let good = { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 2 } in
        let bad = { Tuner.Gemm.nb = 24; rm = 4; rn = 1; v = 4 } in
        (* the poisoned variant diverges: its kernel is `while true do end` *)
        let poisoned () =
          let open Stage in
          let ep = Types.ptr elem in
          let sA = sym ~name:"A" ()
          and sB = sym ~name:"B" ()
          and sC = sym ~name:"C" () in
          let lda = sym ~name:"lda" ()
          and ldb = sym ~name:"ldb" ()
          and ldc = sym ~name:"ldc" () in
          func ctx ~name:"poisoned_kernel"
            ~params:
              [
                (sA, ep); (sB, ep); (sC, ep); (lda, Types.int64);
                (ldb, Types.int64); (ldc, Types.int64);
              ]
            ~ret:Types.Tunit
            [ swhile (bool_ true) [] ]
        in
        let gen p =
          if p = bad then poisoned () else Tuner.Gemm.genkernel ctx ~elem p
        in
        let skipped = ref [] in
        let results =
          Tuner.Search.search ~space:(Some [ good; bad ]) ~test_n:48
            ~fuel_budget:5_000_000
            ~on_skip:(fun p d -> skipped := (p, d) :: !skipped)
            ~gen ctx ~elem ()
        in
        (* the good candidate survives, the poisoned one is skipped with a
           fuel-trap diagnostic, and the search completes *)
        checki "one survivor" 1 (List.length results);
        checkb "survivor is the good candidate" true
          ((Tuner.Search.best results).Tuner.Search.cparams = good);
        match !skipped with
        | [ (p, d) ] ->
            checkb "skipped the poisoned candidate" true (p = bad);
            Alcotest.(check string) "trap code" "trap.fuel" d.Diag.code
        | l -> Alcotest.failf "expected 1 skip, got %d" (List.length l));
    quick "fault injection: an injected VM trap cannot sink the search"
      (fun () ->
        (* same property, but the failure comes from the TerraSan fault
           harness rather than a bad kernel: a one-shot trap is armed
           while generating the second candidate and fires during its
           timing run *)
        let machine =
          Tmachine.Machine.create
            (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
        in
        let ctx = Context.create ~machine () in
        let elem = Types.double in
        let good = { Tuner.Gemm.nb = 16; rm = 2; rn = 2; v = 2 } in
        let doomed = { Tuner.Gemm.nb = 24; rm = 4; rn = 1; v = 4 } in
        let vm = ctx.Context.vm in
        let gen p =
          if p = doomed then
            Tvm.Vm.add_fault vm
              (Tvm.Fault.Trap_at_step (Tvm.Vm.steps vm + 10));
          Tuner.Gemm.genkernel ctx ~elem p
        in
        let skipped = ref [] in
        let results =
          Tuner.Search.search ~space:(Some [ good; doomed ]) ~test_n:48
            ~on_skip:(fun p d -> skipped := (p, d) :: !skipped)
            ~gen ctx ~elem ()
        in
        checki "one survivor" 1 (List.length results);
        checkb "survivor is the clean candidate" true
          ((Tuner.Search.best results).Tuner.Search.cparams = good);
        match !skipped with
        | [ (p, d) ] ->
            checkb "skipped the doomed candidate" true (p = doomed);
            Alcotest.(check string) "fault code" "fault.trap" d.Diag.code
        | l -> Alcotest.failf "expected 1 skip, got %d" (List.length l));
    QCheck_alcotest.to_alcotest prop_genkernel_correct;
  ]

(* ------------------------------------------------------------------ *)
(* Orion *)

let orion_ctx () =
  Context.create
    ~machine:
      (Tmachine.Machine.create
         (Tmachine.Config.scaled Tmachine.Config.ivybridge_like))
    ()

(* a reference stencil in OCaml with zero boundary *)
let ref_area_filter inb w h =
  let at x y =
    if x < 0 || x >= w || y < 0 || y >= h then 0.0 else inb.(y).(x)
  in
  let f32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let blur_y = Array.init h (fun y -> Array.init w (fun x ->
      f32 (f32 (0.2 *. f32 (f32 (f32 (at x (y-2) +. at x (y-1)) +. f32 (at x y +. at x (y+1))) +. at x (y+2))))))
  in
  let at2 x y =
    if x < 0 || x >= w || y < 0 || y >= h then 0.0 else blur_y.(y).(x)
  in
  Array.init h (fun y -> Array.init w (fun x ->
      f32 (f32 (0.2 *. f32 (f32 (f32 (at2 (x-2) y +. at2 (x-1) y) +. f32 (at2 x y +. at2 (x+1) y)) +. at2 (x+2) y)))))

let run_area cfg w h input =
  let ctx = orion_ctx () in
  let c = Orion.Workloads.compile_area ctx cfg ~w ~h in
  let inb = Orion.Codegen.alloc_io c in
  Orion.Buffer.fill inb (fun x y -> input x y);
  let out = Orion.Codegen.alloc_io c in
  Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
  out

let orion_tests =
  [
    quick "area filter matches OCaml reference" (fun () ->
        let w = 32 and h = 24 in
        let f x y = sin (float_of_int (x + (3 * y)) /. 4.0) in
        let inb = Array.init h (fun y -> Array.init w (fun x -> f x y)) in
        let expected = ref_area_filter inb w h in
        let out = run_area Orion.Workloads.scalar_mat w h f in
        let worst = ref 0.0 in
        for y = 0 to h - 1 do
          for x = 0 to w - 1 do
            worst :=
              Float.max !worst
                (Float.abs (Orion.Buffer.get out x y -. expected.(y).(x)))
          done
        done;
        checkb "close to reference" true (!worst < 1e-5));
    quick "all schedules identical" (fun () ->
        let w = 64 and h = 48 in
        let f x y = cos (float_of_int ((2 * x) + y) /. 7.0) in
        let a = run_area Orion.Workloads.scalar_mat w h f in
        let b = run_area (Orion.Workloads.vec_mat 8) w h f in
        let c = run_area (Orion.Workloads.vec_lb 8) w h f in
        checkf "scalar vs vec" 0.0 (Orion.Buffer.max_abs_diff a b);
        checkf "scalar vs lb" 0.0 (Orion.Buffer.max_abs_diff a c));
    quick "pointwise inline equals materialize" (fun () ->
        let ctx = orion_ctx () in
        let w = 64 and h = 32 in
        let mk inline_all =
          Orion.Workloads.compile_pointwise ctx ~inline_all ~vec:1 ~w ~h ()
        in
        let c1 = mk false and c2 = mk true in
        let inb = Orion.Codegen.alloc_io c1 in
        Orion.Buffer.fill inb (fun x y -> 0.4 +. (0.3 *. sin (float_of_int (x * y))));
        let o1 = Orion.Codegen.alloc_io c1 and o2 = Orion.Codegen.alloc_io c2 in
        Orion.Codegen.run c1 ~inputs:[ inb ] ~output:o1;
        Orion.Codegen.run c2 ~inputs:[ inb ] ~output:o2;
        checkf "identical" 0.0 (Orion.Buffer.max_abs_diff o1 o2));
    quick "fluid schedules agree" (fun () ->
        let ctx = orion_ctx () in
        let w = 64 and h = 64 in
        let run cfg =
          let f = Orion.Workloads.create_fluid ctx cfg ~w ~h in
          Orion.Workloads.seed_fluid f;
          Orion.Workloads.step_fluid f ~jacobi_iters:4;
          Orion.Workloads.step_fluid f ~jacobi_iters:4;
          ( Orion.Workloads.density_checksum f,
            Orion.Workloads.velocity_checksum f )
        in
        let d1, v1 = run Orion.Workloads.scalar_mat in
        let d2, v2 = run (Orion.Workloads.vec_lb 8) in
        checkf "density" d1 d2;
        checkf "velocity" v1 v2);
    quick "line buffering across three chained stages" (fun () ->
        let ctx = orion_ctx () in
        let open Orion.Ir in
        let w = 48 and h = 40 in
        let chain lb =
          let st ?name e = if lb then linebuffer ?name e else materialize ?name e in
          let x = input 0 in
          let s1 = st ~name:"s1" (scale 0.5 (add (shift x 0 (-1)) (shift x 0 1))) in
          let s2 = st ~name:"s2" (scale 0.5 (add (shift s1 (-1) 0) (shift s1 1 0))) in
          add s2 (shift s2 0 2)
        in
        let run lb =
          let c = Orion.Codegen.compile ctx ~vectorize:1 ~w ~h ~ninputs:1 (chain lb) in
          let inb = Orion.Codegen.alloc_io c in
          Orion.Buffer.fill inb (fun x y -> float_of_int ((x * 7) + y));
          let out = Orion.Codegen.alloc_io c in
          Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
          out
        in
        checkf "identical" 0.0 (Orion.Buffer.max_abs_diff (run false) (run true)));
    quick "schedule error: shared line buffer consumer" (fun () ->
        let ctx = orion_ctx () in
        let open Orion.Ir in
        let x = input 0 in
        let lb = linebuffer ~name:"shared" (scale 2.0 x) in
        let m1 = materialize ~name:"m1" (shift lb 0 1) in
        let root = add m1 (materialize ~name:"m2" (shift lb 0 (-1))) in
        checkb "raises" true
          (match
             Orion.Codegen.compile ctx ~vectorize:1 ~w:16 ~h:16 ~ninputs:1 root
           with
          | exception Orion.Codegen.Schedule_error _ -> true
          | _ -> false));
    quick "extern advect pass runs" (fun () ->
        let ctx = orion_ctx () in
        let c = Orion.Workloads.compile_advect ctx ~dt:0.0 ~w:32 ~h:32 in
        let src = Orion.Codegen.alloc_io c in
        let u = Orion.Codegen.alloc_io c and v = Orion.Codegen.alloc_io c in
        Orion.Buffer.fill src (fun x y -> float_of_int (x + y));
        let out = Orion.Codegen.alloc_io c in
        Orion.Codegen.run c ~inputs:[ src; u; v ] ~output:out;
        (* dt = 0: advection is the identity (edge columns feel the
           sampling clamp, so compare the interior) *)
        checkb "identity" true
          (Orion.Buffer.max_abs_diff ~border:1 src out < 1e-6));
  ]

let prop_orion_schedules =
  QCheck.Test.make ~count:8 ~name:"random stencils: schedules agree"
    QCheck.(pair (int_range 0 2) (int_range 1 2))
    (fun (which, r) ->
      let ctx = orion_ctx () in
      let open Orion.Ir in
      let w = 40 and h = 32 in
      let x = input 0 in
      let body (st : ?name:string -> Orion.Ir.t -> Orion.Ir.t) =
        let inner =
          match which with
          | 0 -> add (shift x (-r) 0) (shift x r 0)
          | 1 -> mul (shift x 0 (-r)) (shift x 0 r)
          | _ -> min_ (shift x (-r) (-r)) (max_ (shift x r r) (Const 0.1))
        in
        let staged = st ~name:"p" (scale 0.3 inner) in
        sub (shift staged 0 1) (scale 0.5 staged)
      in
      let run st vec =
        let c =
          Orion.Codegen.compile ctx ~vectorize:vec ~w ~h ~ninputs:1 (body st)
        in
        let inb = Orion.Codegen.alloc_io c in
        Orion.Buffer.fill inb (fun x y ->
            sin (float_of_int ((x * 3) + (y * 5)) /. 11.0));
        let out = Orion.Codegen.alloc_io c in
        Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
        out
      in
      let mat = run (fun ?name e -> materialize ?name e) 1 in
      let lb = run (fun ?name e -> linebuffer ?name e) 8 in
      let inl = run (fun ?name e -> inline ?name e) 4 in
      (* materialize and line-buffer share boundary semantics exactly;
         inlining moves where the zero boundary applies, so compare its
         result on the interior only *)
      Orion.Buffer.max_abs_diff mat lb < 1e-6
      && Orion.Buffer.max_abs_diff ~border:((2 * r) + 2) mat inl < 1e-6)

(* ------------------------------------------------------------------ *)
(* Class system *)

open Stage
open Stage.Infix
module J = Javalike

let class_tests =
  [
    quick "virtual dispatch with override" (fun () ->
        let ctx = small_ctx () in
        let base = J.new_class ctx "Base" in
        ignore
          (J.method_ base "id" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 1)) ]));
        let derived = J.new_class ctx "Derived" in
        J.extends derived base;
        ignore
          (J.method_ derived "id" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 2)) ]));
        (* call through &Base: dynamic type decides *)
        let viabase = declare ctx "viabase" in
        let p = sym ~name:"p" () in
        ignore
          (define_func viabase
             ~params:[ (p, J.cptr base) ]
             ~ret:Types.int_
             [ sreturn (Some (method_ (deref (var p)) "id" [])) ]);
        let ob = J.alloc_object base and od = J.alloc_object derived in
        let call obj =
          match Jit.call viabase [ Ffi.wrap_cdata ctx (J.cptr base) obj ] with
          | [ Mlua.Value.Num x ] -> int_of_float x
          | _ -> Alcotest.fail "num expected"
        in
        checki "base" 1 (call ob);
        checki "derived (upcast pointer, derived vtable)" 2 (call od));
    quick "parent layout is a prefix" (fun () ->
        let ctx = small_ctx () in
        let a = J.new_class ctx "A" in
        J.field a "x" Types.double;
        let b = J.new_class ctx "B" in
        J.extends b a;
        J.field b "y" Types.int_;
        ignore
          (J.method_ a "nop" ~params:[] ~ret:Types.Tunit (fun _ -> []));
        J.finalize b;
        let off cls f =
          match Types.field_of cls.J.sinfo f with
          | Some (_, _, o) -> o
          | None -> Alcotest.fail ("missing " ^ f)
        in
        checki "x same offset" (off a "x") (off b "x");
        checkb "y after parent" true (off b "y" >= Types.sizeof (J.ctype a)));
    quick "interface through second class" (fun () ->
        let ctx = small_ctx () in
        let speaker =
          J.interface ~name:"Speaker" [ ("speak", [], Types.int_) ]
        in
        let dog = J.new_class ctx "Dog" in
        J.implements dog speaker;
        ignore
          (J.method_ dog "speak" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 10)) ]));
        let cat = J.new_class ctx "Cat" in
        J.implements cat speaker;
        ignore
          (J.method_ cat "speak" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 20)) ]));
        let viaiface = declare ctx "viaiface" in
        let d = sym ~name:"d" () in
        ignore
          (define_func viaiface
             ~params:[ (d, J.iface_ref_type speaker) ]
             ~ret:Types.int_
             [ sreturn (Some (J.icall speaker "speak" (var d) [])) ]);
        let through cls obj =
          let caller = declare ctx ("call_" ^ cls.J.cname) in
          let o = sym ~name:"o" () in
          ignore
            (define_func caller
               ~params:[ (o, J.cptr cls) ]
               ~ret:Types.int_
               [ sreturn (Some (callf viaiface [ var o ])) ]);
          match Jit.call caller [ Ffi.wrap_cdata ctx (J.cptr cls) obj ] with
          | [ Mlua.Value.Num x ] -> int_of_float x
          | _ -> Alcotest.fail "num"
        in
        checki "dog" 10 (through dog (J.alloc_object dog));
        checki "cat" 20 (through cat (J.alloc_object cat)));
    quick "missing method rejected at finalize" (fun () ->
        let ctx = small_ctx () in
        let i = J.interface ~name:"I" [ ("m", [], Types.int_) ] in
        let c = J.new_class ctx "Incomplete" in
        J.implements c i;
        checkb "raises" true
          (match J.finalize c with
          | exception J.Class_error _ -> true
          | _ -> false));
    quick "fat-pointer interfaces dispatch" (fun () ->
        let ctx = small_ctx () in
        let spk = J.fat_interface ~name:"FatSpeaker" [ ("speak", [], Types.int_) ] in
        let dog = J.new_class ctx "FatDog" in
        ignore
          (J.method_ dog "speak" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 7)) ]));
        let cat = J.new_class ctx "FatCat" in
        ignore
          (J.method_ cat "speak" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 8)) ]));
        (* a function taking the fat reference by value *)
        let viafat = declare ctx "viafat" in
        let r = sym ~name:"r" () in
        ignore
          (define_func viafat
             ~params:[ (r, J.fat_ref_type spk) ]
             ~ret:Types.int_
             [ sreturn (Some (J.fat_call spk "speak" (var r) [])) ]);
        let through cls obj =
          let caller = declare ctx ("fat_" ^ cls.J.cname) in
          let o = sym ~name:"o" () in
          ignore
            (define_func caller
               ~params:[ (o, J.cptr cls) ]
               ~ret:Types.int_
               [
                 defvar (sym ()) ~ty:Types.int_ ~init:(int_ 0);
                 sreturn (Some (callf viafat [ J.fat_ref spk cls (var o) ]));
               ]);
          match Jit.call caller [ Ffi.wrap_cdata ctx (J.cptr cls) obj ] with
          | [ Mlua.Value.Num x ] -> int_of_float x
          | _ -> Alcotest.fail "num"
        in
        checki "dog" 7 (through dog (J.alloc_object dog));
        checki "cat" 8 (through cat (J.alloc_object cat)));
    quick "saveobj relocates vtables (separate evaluation)" (fun () ->
        let ctx = small_ctx () in
        let animal = J.new_class ctx "OAnimal" in
        ignore
          (J.method_ animal "sound" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 1)) ]));
        let wolf = J.new_class ctx "OWolf" in
        J.extends wolf animal;
        ignore
          (J.method_ wolf "sound" ~params:[] ~ret:Types.int_ (fun _ ->
               [ sreturn (Some (int_ 2)) ]));
        (* entry point: stack-allocate a wolf, init its vtable, and call
           virtually through &OAnimal *)
        let entry = declare ctx "entry" in
        let w = sym ~name:"w" () in
        ignore
          (define_func entry ~params:[] ~ret:Types.int_
             (defvar w ~ty:(J.ctype wolf)
                ~init:(construct (J.ctype wolf) [])
             :: J.init_vtables_q wolf (var w)
             @ [
                 sreturn
                   (Some (method_ (cast (J.cptr animal) (addr (var w))) "sound" []));
               ]));
        (* compiles and runs in-process *)
        (match Jit.call entry [] with
        | [ Mlua.Value.Num 2.0 ] -> ()
        | _ -> Alcotest.fail "in-process dispatch");
        (* save, then run in a fresh VM with no Lua or class system *)
        let path = Filename.temp_file "vtbl" ".tobj" in
        Terra.Objfile.save path [ ("entry", entry) ];
        let obj = Terra.Objfile.load_file path in
        Sys.remove path;
        let vm, exports = Terra.Objfile.instantiate obj in
        (match Tvm.Vm.call vm (List.assoc "entry" exports) [||] with
        | Tvm.Vm.VI 2L -> ()
        | Tvm.Vm.VI n -> Alcotest.failf "standalone dispatch got %Ld" n
        | _ -> Alcotest.fail "int expected"));
    quick "subtype checks" (fun () ->
        let ctx = small_ctx () in
        let a = J.new_class ctx "SA" in
        ignore (J.method_ a "z" ~params:[] ~ret:Types.Tunit (fun _ -> []));
        let b = J.new_class ctx "SB" in
        J.extends b a;
        checkb "b <: a" true (J.is_subclass ~sub:b ~super:a);
        checkb "a not <: b" false (J.is_subclass ~sub:a ~super:b));
  ]

(* ------------------------------------------------------------------ *)
(* Data layout *)

let layout_tests =
  [
    quick "both layouts, same kernel results" (fun () ->
        let ctx = small_ctx () in
        let results =
          List.map
            (fun layout ->
              let m = Datalayout.Mesh.build ctx ~layout ~nverts:500 ~nfaces:900 in
              ignore (Datalayout.Mesh.run_normals ctx m);
              Datalayout.Mesh.checksum ctx m)
            [ Datalayout.Datatable.AoS; Datalayout.Datatable.SoA ]
        in
        match results with
        | [ a; b ] -> checkf "checksums" a b
        | _ -> assert false);
    quick "row interface round-trips (AoS and SoA)" (fun () ->
        List.iter
          (fun layout ->
            let ctx = small_ctx () in
            let t =
              Datalayout.Datatable.create ctx ~name:"T"
                [ ("a", Types.float_); ("b", Types.int32) ]
                layout
            in
            let addr = Datalayout.Datatable.alloc_container t 10 in
            (* write via terra using row methods, read back via getters *)
            let wr = declare ctx "wr" in
            let self = sym ~name:"self" () and i = sym ~name:"i" () in
            let r = sym ~name:"r" () in
            ignore
              (define_func wr
                 ~params:
                   [ (self, Types.ptr (Types.Tstruct t.Datalayout.Datatable.tstruct));
                     (i, Types.int64) ]
                 ~ret:Types.Tunit
                 [
                   defvar r ~init:(method_ (deref (var self)) "row" [ var i ]);
                   sexpr (method_ (var r) "seta" [ cast Types.float_ (var i) *! f32 1.5 ]);
                   sexpr (method_ (var r) "setb" [ cast Types.int32 (var i *! i64 7L) ]);
                 ]);
            let rd = declare ctx "rd" in
            let self2 = sym ~name:"self" () and i2 = sym ~name:"i" () in
            let r2 = sym ~name:"r" () in
            ignore
              (define_func rd
                 ~params:
                   [ (self2, Types.ptr (Types.Tstruct t.Datalayout.Datatable.tstruct));
                     (i2, Types.int64) ]
                 ~ret:Types.double
                 [
                   defvar r2 ~init:(method_ (deref (var self2)) "row" [ var i2 ]);
                   sreturn
                     (Some
                        (cast Types.double (method_ (var r2) "a" [])
                        +! cast Types.double (method_ (var r2) "b" [])));
                 ]);
            for i = 0 to 9 do
              ignore
                (Jit.call wr
                   [
                     Ffi.wrap_cdata ctx (Types.ptr (Types.Tstruct t.Datalayout.Datatable.tstruct)) addr;
                     Mlua.Value.Num (float_of_int i);
                   ])
            done;
            for i = 0 to 9 do
              match
                Jit.call rd
                  [
                    Ffi.wrap_cdata ctx (Types.ptr (Types.Tstruct t.Datalayout.Datatable.tstruct)) addr;
                    Mlua.Value.Num (float_of_int i);
                  ]
              with
              | [ Mlua.Value.Num x ] ->
                  checkf
                    (Printf.sprintf "%s row %d"
                       (Datalayout.Datatable.layout_name layout)
                       i)
                    ((float_of_int i *. 1.5) +. float_of_int (i * 7))
                    x
              | _ -> Alcotest.fail "num"
            done)
          [ Datalayout.Datatable.AoS; Datalayout.Datatable.SoA ]);
    quick "staged accessors agree with method accessors" (fun () ->
        List.iter
          (fun layout ->
            let ctx = small_ctx () in
            let t =
              Datalayout.Datatable.create ctx ~name:"Q"
                [ ("v", Types.float_) ]
                layout
            in
            let addr = Datalayout.Datatable.alloc_container t 4 in
            let tptr = Types.ptr (Types.Tstruct t.Datalayout.Datatable.tstruct) in
            let wr = declare ctx "w2" in
            let self = sym ~name:"self" () in
            ignore
              (define_func wr ~params:[ (self, tptr) ] ~ret:Types.Tunit
                 [
                   Datalayout.Datatable.set_q t (var self) (i64 2L) "v" (f32 8.5);
                 ]);
            ignore (Jit.call wr [ Ffi.wrap_cdata ctx tptr addr ]);
            let rd = declare ctx "r2" in
            let self2 = sym ~name:"self" () and r = sym ~name:"r" () in
            ignore
              (define_func rd ~params:[ (self2, tptr) ] ~ret:Types.float_
                 [
                   defvar r ~init:(method_ (deref (var self2)) "row" [ i64 2L ]);
                   sreturn (Some (method_ (var r) "v" []));
                 ]);
            match Jit.call rd [ Ffi.wrap_cdata ctx tptr addr ] with
            | [ Mlua.Value.Num x ] ->
                checkf (Datalayout.Datatable.layout_name layout) 8.5 x
            | _ -> Alcotest.fail "num")
          [ Datalayout.Datatable.AoS; Datalayout.Datatable.SoA ]);
    quick "container sizes differ by layout" (fun () ->
        let ctx = small_ctx () in
        let fields = [ ("a", Types.float_); ("b", Types.float_) ] in
        let aos = Datalayout.Datatable.create ctx ~name:"Sz" fields Datalayout.Datatable.AoS in
        let soa = Datalayout.Datatable.create ctx ~name:"Sz" fields Datalayout.Datatable.SoA in
        (* AoS container: one data pointer + n; SoA: one pointer per field + n *)
        checki "aos" 16 (Types.sizeof (Datalayout.Datatable.container_type aos));
        checki "soa" 24 (Types.sizeof (Datalayout.Datatable.container_type soa)));
  ]

(* ------------------------------------------------------------------ *)
(* Image substrate *)

let image_tests =
  [
    quick "pgm roundtrip" (fun () ->
        let ctx = small_ctx () in
        let img = Timage.Image.test_pattern ctx ~width:24 ~height:16 in
        let path = Filename.temp_file "timg" ".pgm" in
        Timage.Image.save_pgm img path;
        let back = Timage.Image.load_pgm ctx path in
        Sys.remove path;
        checki "w" 24 back.Timage.Image.width;
        checki "h" 16 back.Timage.Image.height;
        (* 8-bit quantization: tolerance 1/127 *)
        checkb "pixels close" true
          (Timage.Image.max_abs_diff img back < 2.0 /. 127.0));
    quick "checksum deterministic" (fun () ->
        let ctx = small_ctx () in
        let a = Timage.Image.test_pattern ctx ~width:20 ~height:20 in
        let b = Timage.Image.test_pattern ctx ~width:20 ~height:20 in
        checkf "equal" (Timage.Image.checksum a) (Timage.Image.checksum b));
  ]

let () =
  Alcotest.run "apps"
    [
      ("gemm", gemm_tests);
      ("orion", orion_tests @ [ QCheck_alcotest.to_alcotest prop_orion_schedules ]);
      ("classes", class_tests);
      ("datalayout", layout_tests);
      ("image", image_tests);
    ]
