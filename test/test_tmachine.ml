(* Tests for the machine-model substrate: cache simulator, cost model,
   configurations. *)

open Tmachine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

let tiny () = Cache.create Config.test_tiny

let stats_of c name =
  match List.assoc_opt name (Cache.level_stats c) with
  | Some s -> s
  | None -> Alcotest.fail ("no level " ^ name)

(* ------------------------------------------------------------------ *)
(* Cache basics *)

let test_cold_miss_then_hit () =
  let c = tiny () in
  Cache.access c ~write:false 0 4;
  Cache.access c ~write:false 4 4;
  let s = stats_of c "L1" in
  checki "one miss" 1 s.Cache.misses;
  checki "one hit" 1 s.Cache.hits

let test_distinct_lines_miss () =
  let c = tiny () in
  Cache.access c ~write:false 0 4;
  Cache.access c ~write:false 64 4;
  Cache.access c ~write:false 128 4;
  checki "three misses" 3 (stats_of c "L1").Cache.misses

let test_straddling_access_touches_two_lines () =
  let c = tiny () in
  Cache.access c ~write:false 60 8;
  (* bytes 60..67 span lines 0 and 1 *)
  let s = stats_of c "L1" in
  checki "two line events" 2 (s.Cache.hits + s.Cache.misses);
  checki "both miss" 2 s.Cache.misses

let test_lru_eviction () =
  (* test_tiny L1: 256B, 2-way, 64B lines -> 2 sets. With index hashing,
     compute three lines in the same set by probing. *)
  let c = tiny () in
  (* lines 0, 2, 4... even lines map by (line xor (line/2) xor ...) mod 2;
     instead simply access many distinct lines and check misses only grow *)
  for i = 0 to 9 do
    Cache.access c ~write:false (i * 64) 4
  done;
  let cold = (stats_of c "L1").Cache.misses in
  checki "all cold misses" 10 cold;
  (* re-touch the first line: with 256B of capacity it must have been
     evicted, so this is another miss *)
  Cache.access c ~write:false 0 4;
  checki "evicted line misses again" 11 (stats_of c "L1").Cache.misses

let test_reset () =
  let c = tiny () in
  Cache.access c ~write:false 0 64;
  Cache.reset c;
  checki "hits cleared" 0 (stats_of c "L1").Cache.hits;
  checki "misses cleared" 0 (stats_of c "L1").Cache.misses;
  checkf "bw cleared" 0.0 (Cache.bandwidth_cycles c);
  checki "bytes cleared" 0 (Cache.bytes_accessed c)

let test_bytes_accounted () =
  let c = tiny () in
  Cache.access c ~write:false 0 16;
  Cache.access c ~write:true 100 8;
  checki "bytes" 24 (Cache.bytes_accessed c)

let test_sequential_stream_is_bandwidth () =
  let c = Cache.create Config.ivybridge_like in
  for i = 0 to 999 do
    Cache.access c ~write:false (i * 64) 64
  done;
  checkb "bandwidth cycles dominate" true
    (Cache.bandwidth_cycles c > 10.0 *. Cache.latency_stall_cycles c)

let test_random_access_is_latency () =
  let c = Cache.create Config.ivybridge_like in
  let a = ref 12345 in
  for _ = 0 to 999 do
    a := ((!a * 1103515245) + 12345) land 0xffffff;
    Cache.access c ~write:false (!a * 64) 4
  done;
  checkb "latency cycles dominate" true
    (Cache.latency_stall_cycles c > Cache.bandwidth_cycles c)

let test_prefetch_no_latency () =
  let c = tiny () in
  Cache.prefetch c 0;
  checkf "no stall charged" 0.0 (Cache.latency_stall_cycles c);
  (* but the line is now resident *)
  Cache.access c ~write:false 0 4;
  checki "prefetched line hits" 1 (stats_of c "L1").Cache.hits

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let prop_hits_plus_misses =
  QCheck.Test.make ~count:100 ~name:"accesses = hits + misses at L1"
    QCheck.(list (pair (int_bound 100000) (int_range 1 16)))
    (fun accesses ->
      let c = tiny () in
      let expected = ref 0 in
      List.iter
        (fun (addr, len) ->
          let first = addr / 64 and last = (addr + len - 1) / 64 in
          expected := !expected + (last - first + 1);
          Cache.access c ~write:false addr len)
        accesses;
      let s = stats_of c "L1" in
      s.Cache.hits + s.Cache.misses = !expected)

let prop_repeat_hits =
  QCheck.Test.make ~count:100 ~name:"immediate re-access always hits"
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let addr = addr - (addr mod 64) in
      let c = Cache.create Config.ivybridge_like in
      Cache.access c ~write:false addr 4;
      let before = (stats_of c "L1").Cache.hits in
      Cache.access c ~write:false addr 4;
      (stats_of c "L1").Cache.hits = before + 1)

let prop_misses_monotone_in_footprint =
  QCheck.Test.make ~count:50 ~name:"more distinct lines, at least as many misses"
    QCheck.(int_range 1 50)
    (fun n ->
      let run k =
        let c = tiny () in
        for i = 0 to k - 1 do
          Cache.access c ~write:false (i * 64) 4
        done;
        (stats_of c "L1").Cache.misses
      in
      run n <= run (n + 10))

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_roofline_compute () =
  let m = Machine.create Config.ivybridge_like in
  for _ = 1 to 100 do
    Machine.count m Cost.Fp_mul
  done;
  (* 100 muls at 1/cycle *)
  checkf "mul-bound" 100.0 (Machine.cycles m)

let test_roofline_issue_width () =
  let m = Machine.create Config.ivybridge_like in
  for _ = 1 to 400 do
    Machine.count m Cost.Int_alu
  done;
  (* 400 int ops: int port does 3/cyc (133), issue width 4 (100) *)
  checkf "int-port bound" (400.0 /. 3.0) (Machine.cycles m)

let test_flops_counted () =
  let m = Machine.create Config.ivybridge_like in
  Machine.count m Cost.Fp_add;
  Cost.vec_mul m.Machine.cost ~lanes:4 ~bits:256;
  checkf "flops" 5.0 (Cost.flops m.Machine.cost)

let test_vec_ops_ports () =
  let m = Machine.create Config.ivybridge_like in
  let cost = m.Machine.cost in
  (* 100 vector adds at 1/cycle bind the add port: 100 cycles, 4 flops each *)
  for _ = 1 to 100 do
    Cost.vec_add cost ~lanes:4 ~bits:256
  done;
  checkf "add-bound" 100.0 (Machine.cycles m);
  checkf "add flops" 400.0 (Cost.flops cost);
  Machine.reset m;
  Cost.vec_div cost ~lanes:2 ~bits:128;
  checkf "div flops" 2.0 (Cost.flops cost);
  checkf "div latency" Config.ivybridge_like.Config.fp_div_cycles
    (Cost.compute_cycles cost);
  Machine.reset m;
  (* shuffles take an issue slot but count no flops *)
  for _ = 1 to 8 do
    Cost.vec_other cost ~bits:256
  done;
  checkf "other flops" 0.0 (Cost.flops cost);
  checkf "other uops" 8.0 (Cost.uops cost);
  checkf "one width, no penalty" 0.0 (Cost.transition_penalty_cycles cost)

let test_vec_transition_penalty () =
  let m = Machine.create Config.ivybridge_like in
  Cost.vec_width_event m.Machine.cost 128;
  Cost.vec_width_event m.Machine.cost 256;
  Cost.vec_mul m.Machine.cost ~lanes:2 ~bits:128;
  let expected = 2.0 *. Config.ivybridge_like.Config.vec_transition_cycles in
  checkf "two transitions" expected (Cost.transition_penalty_cycles m.Machine.cost)

let test_same_width_no_penalty () =
  let m = Machine.create Config.ivybridge_like in
  for _ = 1 to 10 do
    Cost.vec_width_event m.Machine.cost 256
  done;
  checkf "no transitions" 0.0 (Cost.transition_penalty_cycles m.Machine.cost)

let test_measure_resets () =
  let m = Machine.create Config.ivybridge_like in
  Machine.count m Cost.Fp_mul;
  let (), r = Machine.measure m (fun () -> Machine.count m Cost.Fp_add) in
  checkf "only the measured work" 1.0 r.Machine.r_flops

let test_peak_flops () =
  checkf "DP peak" 28.8e9
    (Config.peak_flops Config.ivybridge_like ~elem_bytes:8);
  checkf "SP peak" 57.6e9
    (Config.peak_flops Config.ivybridge_like ~elem_bytes:4)

let test_scaled_config () =
  let s = Config.scaled ~factor:4 Config.ivybridge_like in
  let l1 = List.hd s.Config.levels in
  checki "L1 scaled" (32 * 1024 / 4) l1.Config.size_bytes;
  checkf "frequency unchanged" Config.ivybridge_like.Config.ghz s.Config.ghz

let test_gflops_report () =
  let m = Machine.create Config.ivybridge_like in
  for _ = 1 to 3_600_000 do
    Machine.count m Cost.Fp_mul
  done;
  (* 3.6M flops in 3.6M cycles at 3.6 GHz = 1ms -> 3.6 GFLOP/s *)
  check (Alcotest.float 0.01) "gflops" 3.6 (Machine.gflops m)

let () =
  Alcotest.run "tmachine"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "distinct lines miss" `Quick test_distinct_lines_miss;
          Alcotest.test_case "straddling access" `Quick
            test_straddling_access_touches_two_lines;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "bytes accounted" `Quick test_bytes_accounted;
          Alcotest.test_case "sequential stream -> bandwidth" `Quick
            test_sequential_stream_is_bandwidth;
          Alcotest.test_case "random access -> latency" `Quick
            test_random_access_is_latency;
          Alcotest.test_case "prefetch hides latency" `Quick
            test_prefetch_no_latency;
          QCheck_alcotest.to_alcotest prop_hits_plus_misses;
          QCheck_alcotest.to_alcotest prop_repeat_hits;
          QCheck_alcotest.to_alcotest prop_misses_monotone_in_footprint;
        ] );
      ( "cost",
        [
          Alcotest.test_case "roofline compute" `Quick test_roofline_compute;
          Alcotest.test_case "issue width" `Quick test_roofline_issue_width;
          Alcotest.test_case "flops counted" `Quick test_flops_counted;
          Alcotest.test_case "vector ops on their ports" `Quick
            test_vec_ops_ports;
          Alcotest.test_case "vector transition penalty" `Quick
            test_vec_transition_penalty;
          Alcotest.test_case "same width no penalty" `Quick
            test_same_width_no_penalty;
          Alcotest.test_case "measure resets" `Quick test_measure_resets;
          Alcotest.test_case "peak flops" `Quick test_peak_flops;
          Alcotest.test_case "scaled config" `Quick test_scaled_config;
          Alcotest.test_case "gflops report" `Quick test_gflops_report;
        ] );
    ]
