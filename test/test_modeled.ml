(* Modeled output is the contract: host-speed work on the VM or the
   machine model must leave fuel, modeled cycles and GFLOPS
   bit-identical.  This suite pins the n=96 GEMM rows of the benchmark
   (BENCH_10.json) and the full machine report of the Terra DGEMM call,
   and holds the VM's hot path to an allocation budget.

   The sgemm rows each run in a fresh context; the dgemm rows run in
   order on one shared machine, which also pins their cycles, bytes and
   per-level statistics.  In the committed benchmark every series
   shares one machine, and [Machine.reset] clears the cache contents
   but keeps the LRU ages and the stream cursor, so a row's cache
   statistics depend on what ran before it on that machine.  Where that
   history moves a row's GFLOPS (dgemm Naive and ATLAS, sgemm ATLAS
   fixed), the benchmark value is only reproducible by the full sweep;
   here the fuel is still BENCH_10's, and the GFLOPS is the value the
   kernel gets in this suite. *)

open Terra

let quick name f = Alcotest.test_case name `Quick f

let fresh_ctx () =
  let machine =
    Tmachine.Machine.create
      (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
  in
  Context.create ~machine ()

(* One benchmark row, exactly as bench/main.ml measures it: allocate and
   fill the matrices, then build the function, then run it. *)
let row ctx ~elem mk =
  let m = Tuner.Gemm.alloc_matrices ctx ~elem 96 in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let f = mk ctx in
  let s0 = Tvm.Vm.steps ctx.Context.vm in
  let gflops, report = Tuner.Gemm.run_gemm ctx f m in
  let fuel = Tvm.Vm.steps ctx.Context.vm - s0 in
  Tuner.Gemm.free_matrices ctx m;
  (Printf.sprintf "%.6f" gflops, fuel, report)

let tuned ~elem ?(no_spill = false) ?(legacy_mix = false) (nb, rm, rn, v) ctx =
  let p = { Tuner.Gemm.nb; rm; rn; v } in
  let kernel = Tuner.Gemm.genkernel ctx ~elem ~no_spill ~legacy_mix p in
  Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb

(* The tuner winners of the committed benchmark run. *)
let dgemm_series =
  let elem = Types.double in
  [
    ("Naive", (fun ctx -> Tuner.Gemm.naive ctx ~elem), "2.382250", 11603812);
    ( "Blocked (cache only)",
      (fun ctx -> Tuner.Gemm.blocked_scalar ctx ~elem ~nb:24),
      "2.298131",
      12052136 );
    ("Terra (auto-tuned)", tuned ~elem (48, 4, 2, 4), "24.502054", 1216340);
    ( "ATLAS (model)",
      tuned ~elem ~no_spill:true (48, 6, 2, 4),
      "26.671185",
      1093668 );
  ]

let sgemm_series =
  let elem = Types.float_ in
  [
    ("Terra (auto-tuned)", tuned ~elem (48, 4, 2, 8), "46.678935", 636596);
    ( "ATLAS (fixed, model)",
      tuned ~elem ~no_spill:true (32, 4, 4, 8),
      "55.801703",
      497534 );
    ( "ATLAS (orig., model)",
      tuned ~elem ~no_spill:true ~legacy_mix:true (32, 4, 4, 4),
      "6.022914",
      949622 );
  ]

let pin_rows ~elem series () =
  List.iter
    (fun (name, mk, gflops, fuel) ->
      let g, f, _ = row (fresh_ctx ()) ~elem mk in
      Alcotest.(check string) (name ^ " GFLOPS") gflops g;
      Alcotest.(check int) (name ^ " fuel") fuel f)
    series

let level_stats (r : Tmachine.Machine.report) =
  List.map
    (fun (n, (s : Tmachine.Cache.level_stats)) ->
      Printf.sprintf "%s %d/%d/%d" n s.hits s.misses s.prefetch_fills)
    r.r_level_stats

let check_report name (r : Tmachine.Machine.report) ~cycles ~bytes ~flops
    ~levels =
  (* exact float equality: the model's additions must happen in the
     same order *)
  Alcotest.(check bool)
    (Printf.sprintf "%s cycles %h = %h" name r.r_cycles cycles)
    true (r.r_cycles = cycles);
  Alcotest.(check bool) (name ^ " flops") true (r.r_flops = flops);
  Alcotest.(check int) (name ^ " bytes") bytes r.r_bytes;
  Alcotest.(check (list string)) (name ^ " hits/misses/prefetch fills")
    levels (level_stats r)

let terra_report () =
  let _, _, r =
    row (fresh_ctx ()) ~elem:Types.double (tuned ~elem:Types.double (48, 4, 2, 4))
  in
  check_report "terra" r ~cycles:0x1.fbc72p+17 ~bytes:3022848
    ~flops:0x1.b48p+20
    ~levels:[ "L1 175448/8872/23"; "L2 3402/5470/25352"; "L3 3118/2352/1167" ]

(* The dgemm series on one shared machine, in order: the cache state
   each row inherits from the one before is part of the model.  A
   report's level statistics are the machine's live counters, so each
   is checked before the next row runs. *)
let shared_history () =
  let ctx = fresh_ctx () in
  let elem = Types.double in
  let expected =
    [
      (0x1.466a04p+21, 14229504, 0x1.bp+20,
       [ "L1 1339456/439232/0"; "L2 330453/108779/0"; "L3 105323/3456/0" ]);
      (0x1.525ca2p+21, 14819328, 0x1.bp+20,
       [ "L1 941512/910904/0"; "L2 871707/39197/0"; "L3 35741/3456/0" ]);
      (0x1.fbc72p+17, 3022848, 0x1.b48p+20,
       [ "L1 139679/44641/10"; "L2 29338/15303/467"; "L3 12951/2352/26067" ]);
      (0x1.d27b2p+17, 2433024, 0x1.b48p+20,
       [ "L1 110744/55144/4"; "L2 40078/15066/183"; "L3 12714/2352/17138" ]);
    ]
  in
  List.iter2
    (fun (name, mk, gflops, fuel) (cycles, bytes, flops, levels) ->
      let g, f, r = row ctx ~elem mk in
      Alcotest.(check string) (name ^ " GFLOPS") gflops g;
      Alcotest.(check int) (name ^ " fuel") fuel f;
      check_report name r ~cycles ~bytes ~flops ~levels)
    dgemm_series expected

(* ------------------------------------------------------------------ *)
(* Allocation budget: minor-heap words per retired instruction. *)

let words_per_instr vm f =
  let s0 = Tvm.Vm.steps vm in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (Tvm.Vm.steps vm - s0)

let budget = 2.0

let check_budget name w =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per instruction <= %.1f" name w
       budget)
    true (w <= budget)

let alloc_dgemm () =
  let ctx = fresh_ctx () in
  let elem = Types.double in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem 96 in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let f = tuned ~elem (48, 4, 2, 4) ctx in
  ignore (Tuner.Gemm.run_gemm ctx f m);
  let args =
    Tvm.Vm.
      [|
        VI 96L;
        VI (Int64.of_int m.Tuner.Gemm.ma);
        VI (Int64.of_int m.Tuner.Gemm.mb);
        VI (Int64.of_int m.Tuner.Gemm.mc);
      |]
  in
  let vm = ctx.Context.vm in
  check_budget "dgemm n=96"
    (words_per_instr vm (fun () -> ignore (Tvm.Vm.call vm f.Func.vmid args)))

(* A scalar loop of integer and float arithmetic, conversions, loads,
   stores and branches, built directly in IR. *)
let alloc_scalar_loop () =
  let open Tvm.Ir in
  let vm = Tvm.Vm.create (Tmachine.Machine.create Tmachine.Config.test_tiny) in
  let buf = Tvm.Mem.heap_base vm.Tvm.Vm.mem in
  (* r0 = n, r1 = i, r2 = int acc, r3 = float acc, r4..r7 temps *)
  let code =
    [|
      Mov (1, Ki 0L);
      Mov (2, Ki 0L);
      Mov (3, Kf 0.0);
      (* 3: loop head *)
      Ibin (Lts, 4, R 1, R 0);
      Br (R 4, 5, 16);
      Ibin (Mul, 5, R 1, Ki 3L);
      Ibin (Add, 2, R 2, R 5);
      Cvt (I64, F64, 6, R 1);
      Fbin (Fk64, FMul, 6, R 6, Kf 0.5);
      Fbin (Fk64, FAdd, 3, R 3, R 6);
      Store (F64, Ki (Int64.of_int buf), R 3);
      Load (F64, 7, Ki (Int64.of_int buf));
      Store (I64, Ki (Int64.of_int (buf + 8)), R 2);
      Load (I32, 7, Ki (Int64.of_int (buf + 8)));
      Ibin (Add, 1, R 1, Ki 1L);
      Jmp 3;
      (* 16 *)
      Ret (Some (R 2));
    |]
  in
  let id =
    Tvm.Vm.add_func vm
      { fname = "loop"; nparams = 1; nregs = 8; frame_bytes = 0; code }
  in
  let run () = ignore (Tvm.Vm.call vm id [| Tvm.Vm.VI 20_000L |]) in
  run ();
  check_budget "scalar loop" (words_per_instr vm run)

let () =
  Alcotest.run "modeled"
    [
      ( "bench-rows",
        [
          quick "sgemm n=96, all three series" (pin_rows ~elem:Types.float_ sgemm_series);
          quick "Terra dgemm n=96 machine report" terra_report;
          quick "dgemm series on one machine" shared_history;
        ] );
      ( "alloc-budget",
        [
          quick "dgemm n=96 kernel call" alloc_dgemm;
          quick "scalar int/float loop" alloc_scalar_loop;
        ] );
    ]
