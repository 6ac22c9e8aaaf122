(* Host-time benchmark of the Lua-Terra reproduction.

     perf.exe --workload W --seed S [--seconds N] [--trace 0|1]
         one run of one workload; prints every metric with its unit, then
         a one-line JSON result (the metrics BENCHMARK.json declares)
     perf.exe --seed S --json OUT [--runs N] [--traced]
         every workload (each run re-execs this program, so no heap, GC
         or peak-RSS state leaks between runs); all runs go to OUT
     perf.exe compare A.json B.json
         a verdict per workload x end-to-end metric
     perf.exe --smoke
         every workload at toy size, untraced and traced, asserting the
         oracles, the declared metrics and trace coverage

   Run it from the root of a built checkout (bench/perf/run.sh builds and
   runs it).  See bench/perf/README.md. *)

module J = Tprof.Json
module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref false
let json_out = ref ""
let runs = ref 1
let smoke = ref false
let smoke_size = ref false
let serve_exe = ref "_build/default/bin/terra_serve.exe"
let bench_json = ref "BENCHMARK.json"
let scratch = ref ".perf_tmp"
let anon = ref []

let specs =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "W one workload (default: all, re-exec'd)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N timed seconds per run (default 10)");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), "0|1 traced per-layer run");
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--json", Arg.Set_string json_out, "FILE write the run records here");
      ("--runs", Arg.Set_int runs, "N runs per workload when running all (default 1)");
      ("--smoke", Arg.Set smoke, " toy-size self-check of every workload");
      ("--size-smoke", Arg.Set smoke_size, " (internal) run at smoke size");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH terra_serve binary");
      ("--bench-json", Arg.Set_string bench_json, "PATH BENCHMARK.json");
      ( "--scratch",
        Arg.Set_string scratch,
        "DIR durable directories and Chrome traces (default .perf_tmp)" );
    ]

let usage = "perf.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--json OUT] | compare A B | --smoke"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* One run of one workload *)

(* Spans written to the Chrome trace: set-up and the first traced ops.
   A mandelbrot run records over a million spans; all of them feed the
   metrics, but a file of that size helps no one. *)
let trace_limit = 50_000

let run_one () =
  let size = if !smoke_size then W.smoke else W.full in
  let env = { W.size; seed = !seed; serve_exe = !serve_exe; scratch = !scratch } in
  let w = W.make !workload env ~traced:!traced in
  if !traced then Mirror.set_traced true;
  (* every set-up but the last is torn down again; the collection
     before each one keeps a discarded arena out of the next peak *)
  let setup_ns = ref [] in
  for k = 1 to size.W.setups do
    if k > 1 then w.W.teardown ();
    Gc.full_major ();
    let t0 = Spans.now_ns () in
    Spans.span "setup" w.W.setup;
    setup_ns := (Spans.now_ns () - t0) :: !setup_ns
  done;
  Mirror.set_traced false;
  w.W.ready ();
  (* fixed-work rounds until the time is used; a traced run alternates
     untraced and traced rounds so both see the same drift *)
  let deadline = Spans.now_ns () + (!seconds * 1_000_000_000) in
  let min_rounds = if !traced then 2 * size.W.min_traced else size.W.min_rounds in
  let rounds = ref [] in
  let rss_kb = ref 0 in
  let i = ref 0 in
  while !i < min_rounds || Spans.now_ns () < deadline do
    let on = !traced && !i mod 2 = 1 in
    Mirror.set_traced on;
    let samples = ref [] in
    let t0 = Spans.now_ns () in
    w.W.round (fun s -> samples := s :: !samples);
    let dt = Spans.now_ns () - t0 in
    Mirror.set_traced false;
    rounds := (on, dt, !samples) :: !rounds;
    incr i;
    (* peak RSS after a fixed amount of work, so a faster build that
       gets through more ops in the same seconds is not charged for
       memory the program retains per op *)
    if !i = min_rounds then
      rss_kb :=
        Option.value ~default:0
          (W.vm_hwm_kb
             (match w.W.child () with Some pid -> string_of_int pid | None -> "self"))
  done;
  let final_ok = w.W.finish () in
  let rounds = List.rev !rounds in
  let measured = List.filter (fun (on, _, _) -> on = !traced) rounds in
  let samples = List.concat_map (fun (_, _, s) -> s) measured in
  let failed = List.length (List.filter (fun s -> not s.W.ok) samples) in
  let attempted = List.length samples in
  let metrics, extra =
    if not !traced then
      (* fuel over the same fixed prefix of work as the peak RSS: the
         ops of a round differ, so a whole-run mean would move with the
         number of rounds that fit in the seconds *)
      let prefix =
        List.concat_map (fun (_, _, s) -> s) (List.filteri (fun k _ -> k < min_rounds) measured)
      in
      ( Report.end_to_end
          {
            Report.setup_ns = !setup_ns;
            rounds = List.map (fun (_, dt, s) -> (dt, List.map (fun x -> x.W.ns) s)) measured;
            attempted;
            failed;
            fuel_per_op =
              float_of_int (List.fold_left (fun a s -> a + s.W.fuel) 0 prefix)
              /. float_of_int (max 1 (List.length prefix));
            gflops = List.filter_map (fun s -> s.W.gflops) samples;
            rss_kb = !rss_kb;
          },
        [] )
    else begin
      let b = Spans.breakdown () in
      (* op time only: traced rounds also run the harness's side probes *)
      let op_rate rs =
        Stats.median
          (List.map
             (fun (_, _, s) ->
               float_of_int (List.length s)
               /. float_of_int (List.fold_left (fun a x -> a + x.W.ns) 0 s))
             rs)
      in
      let untraced = List.filter (fun (on, _, _) -> not on) rounds in
      let overhead_pct = 100.0 *. ((op_rate untraced /. op_rate measured) -. 1.0) in
      let probe_overhead_pct =
        if !workload = "dgemm" then W.probe_overhead_pct (if !smoke_size then 1 else 5)
        else 0.0
      in
      let path = Filename.concat !scratch (Printf.sprintf "trace-%s.json" !workload) in
      let oc = open_out_bin path in
      output_string oc (J.to_string (Spans.chrome ~limit:trace_limit ()));
      close_out oc;
      Printf.printf "trace: %d spans recorded, the first %d written to %s\n" !Spans.count
        (min trace_limit !Spans.count) path;
      (Report.per_layer b ~overhead_pct ~probe_overhead_pct, Report.breakdown_json b)
    end
  in
  {
    Report.workload = !workload;
    seed = !seed;
    traced = !traced;
    correct = final_ok && failed = 0;
    attempted;
    failed;
    metrics;
    extra;
  }

let print_record (r : Report.record) =
  List.iter
    (fun (x : Report.metric) ->
      Printf.printf "%-14s %-28s %16.6f %s\n" r.Report.workload x.Report.name x.Report.value
        x.Report.unit)
    r.Report.metrics;
  (match List.assoc_opt "layers" r.Report.extra with
  | Some (J.List rows) ->
      Printf.printf "%-14s self time by span (share of traced op time)\n" r.Report.workload;
      List.iter
        (fun row ->
          let f k = Option.value (Report.float_of (J.member k row)) ~default:0.0 in
          Printf.printf "%-14s   %-22s %10.4f ms/op %6.2f%%  %9.2f calls/op\n"
            r.Report.workload
            (Option.value (J.to_string_opt (J.member "name" row)) ~default:"?")
            (f "self_ms_per_op") (f "self_pct") (f "calls_per_op"))
        rows
  | _ -> ());
  Printf.printf "%-14s correct=%b attempted=%d failed=%d\n%!" r.Report.workload
    r.Report.correct r.Report.attempted r.Report.failed

(* ------------------------------------------------------------------ *)
(* Several runs: one child process per run *)

let child_run ?(quiet = false) ~w ~trace ~size_smoke ~secs () =
  let tmp =
    Filename.concat !scratch (Printf.sprintf "run-%d-%s.json" (Unix.getpid ()) w)
  in
  let args =
    [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed;
      "--seconds"; string_of_int secs; "--trace"; (if trace then "1" else "0");
      "--json"; tmp; "--serve-exe"; !serve_exe; "--bench-json"; !bench_json;
      "--scratch"; !scratch ]
    @ (if size_smoke then [ "--size-smoke" ] else [])
  in
  let out = if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stdout in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  if quiet then Unix.close out;
  let r =
    match Report.read_runs tmp with
    | [ r ] -> Some r
    | _ | (exception _) -> None
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  match (status, r) with
  | Unix.WEXITED (0 | 1), Some r -> r
  | _ -> failwith (Printf.sprintf "perf: run of %s failed" w)

let write_runs records =
  if !json_out <> "" then begin
    let oc = open_out_bin !json_out in
    output_string oc (J.to_string (Report.file_json records));
    output_char oc '\n';
    close_out oc
  end

let run_all () =
  let records =
    List.concat_map
      (fun w ->
        List.init !runs (fun _ ->
            child_run ~w ~trace:!traced ~size_smoke:false ~secs:!seconds ()))
      W.names
  in
  write_runs records;
  if List.for_all (fun r -> r.Report.correct) records then 0 else 1

(* ------------------------------------------------------------------ *)
(* --smoke *)

let smoke_check () =
  let declared = Report.declared !bench_json in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if declared = None then fail "%s is missing or unreadable" !bench_json;
  let need (r : Report.record) names =
    List.iter
      (fun n ->
        if not (List.exists (fun (x : Report.metric) -> x.Report.name = n) r.Report.metrics)
        then fail "%s: declared metric %s not emitted" r.Report.workload n)
      names
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          match child_run ~quiet:true ~w ~trace ~size_smoke:true ~secs:0 () with
          | exception Failure msg -> fail "%s" msg
          | r -> (
              if not r.Report.correct then fail "%s (trace %b): outputs incorrect" w trace;
              Option.iter (fun d -> need r (Report.names d ~traced:trace)) declared;
              if trace then
                match
                  List.find_opt
                    (fun (x : Report.metric) -> x.Report.name = "trace.coverage_pct")
                    r.Report.metrics
                with
                | Some x when x.Report.value >= 95.0 -> ()
                | Some x -> fail "%s: trace coverage %.1f%% < 95%%" w x.Report.value
                | None -> fail "%s: no trace coverage" w))
        [ false; true ])
    W.names;
  W.rm_rf !scratch;
  match List.rev !problems with
  | [] ->
      print_endline "smoke: ok";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) ps;
      1

(* ------------------------------------------------------------------ *)

let compare_cmd a b =
  let rows = Report.compare_files ~declared:(Report.declared !bench_json) a b in
  Printf.printf "%-14s %-18s %8s %16s %16s  %s\n" "workload" "metric" "bound" "median A"
    "median B" "verdict";
  List.iter
    (fun (w, name, bound, ma, mb, v) ->
      Printf.printf "%-14s %-18s %8.3f %16.6f %16.6f  %s\n" w name bound ma mb
        (Report.verdict_name v))
    rows;
  if List.exists (fun (_, _, _, _, _, v) -> v = Report.Regressed) rows then 1 else 0

(* A run that hangs must still end: kill the children and fail. *)
let watchdog secs =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !W.children;
         prerr_endline "perf: watchdog expired";
         exit 124));
  ignore (Unix.alarm secs)

let () =
  Arg.parse specs (fun a -> anon := !anon @ [ a ]) usage;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    match !anon with
    | [ "compare"; a; b ] -> compare_cmd a b
    | _ :: _ ->
        prerr_endline usage;
        2
    | [] ->
        mkdir_p !scratch;
        if !smoke then smoke_check ()
        else if !workload = "" then run_all ()
        else begin
          if not (List.mem !workload W.names) then begin
            prerr_endline ("perf: unknown workload " ^ !workload);
            exit 2
          end;
          watchdog (!seconds + 150);
          let r = run_one () in
          print_record r;
          write_runs [ r ];
          let declared =
            Option.map (Report.names ~traced:!traced) (Report.declared !bench_json)
          in
          print_endline (Report.result_line r ~declared);
          if r.Report.correct then 0 else 1
        end
  in
  exit code
