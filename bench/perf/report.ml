(** Metrics, result records, summaries and the [compare] verdicts. *)

module J = Tprof.Json

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (untraced run) *)

type run_stats = {
  setup_ns : int list;
  rounds : (int * int list) list;  (** per round: wall ns, op latencies (ns) *)
  attempted : int;
  failed : int;
  fuel_per_op : float;
  gflops : float list;
  rss_kb : int;
}

(* Throughput and latency percentiles are taken per round (a fixed batch
   of at least 20 ops) and the run reports their median over rounds: a
   burst of host interference then spoils a round, not the result. *)
let end_to_end (r : run_stats) =
  let per_round f = Stats.median (List.map f r.rounds) in
  let pct p (_, lat) =
    let a = Array.of_list (List.map float_of_int lat) in
    Array.sort Float.compare a;
    Stats.percentile_sorted a p /. 1e6
  in
  [
    m "setup_s" "s" (Stats.median (List.map (fun n -> float_of_int n /. 1e9) r.setup_ns));
    m "throughput_ops_s" "1/s"
      (per_round (fun (ns, lat) -> float_of_int (List.length lat) /. (float_of_int ns /. 1e9)));
    m "latency_p50_ms" "ms" (per_round (pct 50.0));
    m "latency_p90_ms" "ms" (per_round (pct 90.0));
    m "peak_rss_mb" "MB" (float_of_int r.rss_kb /. 1024.0);
    m "error_rate" "ratio" (float_of_int r.failed /. float_of_int (max 1 r.attempted));
    m "fuel_per_op" "instr" r.fuel_per_op;
  ]
  @
  match r.gflops with
  | [] -> []
  | g -> [ m "modeled_gflops" "GFLOPS" (Stats.median g) ]

(** End-to-end metrics whose value is modeled, not timed: any change at
    all is a change in the program's output.  [compare] holds them to a
    bound of 0; [BENCHMARK.json] declares only the host-time metrics. *)
let exact = [ ("error_rate", `Lower); ("fuel_per_op", `Lower); ("modeled_gflops", `Higher) ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run) *)

let per_layer (b : Spans.breakdown) ~overhead_pct ~probe_overhead_pct =
  let ops = float_of_int (max 1 b.Spans.ops) in
  let l name = Spans.find b.Spans.layers name in
  let ms ns = float_of_int ns /. 1e6 in
  let total name = ms (l name).Spans.total_ns /. ops in
  let self name = ms (l name).Spans.self_ns /. ops in
  let c name = Spans.counter name in
  let per_op name = c name /. ops in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let instrs = c "tvm.instructions" in
  let fp = Spans.find b.Spans.probes "tvm.fingerprint" in
  let fp_ms = ratio (ms fp.Spans.total_ns) (float_of_int fp.Spans.calls) in
  let covered =
    List.fold_left (fun acc (_, (x : Spans.layer)) -> acc + x.Spans.self_ns) 0 b.Spans.layers
  in
  [
    m "mlua.parse_ms" "ms" (total "mlua.parse");
    m "mlua.eval_ms" "ms" (self "mlua.eval");
    m "mlua.scope_ms" "ms" (total "mlua.scope");
    m "terra.typecheck_ms" "ms" (total "terra.typecheck");
    m "terra.lower_ms" "ms" (total "terra.lower");
    m "terra.funcs_compiled" "count" (per_op "terra.funcs_compiled");
    m "terra.ffi_calls" "count" (per_op "terra.ffi_calls");
    m "terra.ffi_call_ms" "ms" (total "terra.ffi_call");
    m "topt.optimize_ms" "ms" (total "topt.optimize");
    m "topt.ir_instrs_in" "count" (per_op "topt.ir_instrs_in");
    m "topt.ir_instrs_out" "count" (per_op "topt.ir_instrs_out");
    m "tvm.call_ms" "ms" (total "tvm.call");
    m "tvm.instructions" "count" (instrs /. ops);
    m "tvm.ns_per_instr" "ns" (ratio (float_of_int (l "tvm.call").Spans.total_ns) instrs);
    m "tvm.minor_words_per_instr" "words" (ratio (c "tvm.minor_words") instrs);
    m "tvm.fingerprint_ms" "ms" fp_ms;
    m "tvm.fingerprints" "count" (per_op "tvm.fingerprints");
    m "tmachine.cycles" "count" (per_op "tmachine.cycles");
    m "tmachine.bytes" "count" (per_op "tmachine.bytes");
    m "tmachine.l1_misses" "count" (per_op "tmachine.l1_misses");
    m "tmachine.l2_misses" "count" (per_op "tmachine.l2_misses");
    m "tmachine.l3_misses" "count" (per_op "tmachine.l3_misses");
    m "tprof.on_overhead_pct" "%" probe_overhead_pct;
    m "serve.parse_ms" "ms" (total "serve.parse");
    m "serve.admit_ms" "ms" (total "serve.admit");
    m "serve.checkout_ms" "ms" (total "serve.checkout");
    m "serve.execute_ms" "ms" (total "serve.execute");
    m "serve.wal_ms" "ms" (total "serve.wal");
    m "serve.ckpt_ms" "ms" (total "serve.ckpt");
    m "serve.checkpoints" "count" (per_op "serve.checkpoints");
    m "serve.recycles" "count" (per_op "serve.recycles");
    m "serve.fingerprint_share" "%"
      (100.0 *. ratio (fp_ms *. c "tvm.fingerprints") (total "serve.execute" *. ops));
    m "trace.op_ms" "ms" (ms b.Spans.op_ns /. ops);
    m "trace.coverage_pct" "%" (100.0 *. ratio (float_of_int covered) (float_of_int b.Spans.op_ns));
    m "trace.overhead_pct" "%" overhead_pct;
  ]

(** Per span name: calls and times per op (or per set-up), and self time
    as a share of op (or set-up) time.  [count] ops took [base_ns]. *)
let layers_json layers ~count ~base_ns =
  let per = float_of_int (max 1 count) in
  J.List
    (List.map
       (fun (name, (x : Spans.layer)) ->
         J.Obj
           [
             ("name", J.Str name);
             ("calls_per_op", J.Float (float_of_int x.Spans.calls /. per));
             ("self_ms_per_op", J.Float (float_of_int x.Spans.self_ns /. 1e6 /. per));
             ("total_ms_per_op", J.Float (float_of_int x.Spans.total_ns /. 1e6 /. per));
             ( "self_pct",
               J.Float (100.0 *. float_of_int x.Spans.self_ns /. float_of_int (max 1 base_ns))
             );
           ])
       layers)

let breakdown_json (b : Spans.breakdown) =
  let setup = Spans.find b.Spans.probes "setup" in
  [
    ("layers", layers_json b.Spans.layers ~count:b.Spans.ops ~base_ns:b.Spans.op_ns);
    ( "setup_layers",
      layers_json b.Spans.setup_layers ~count:setup.Spans.calls ~base_ns:setup.Spans.total_ns );
  ]

(* ------------------------------------------------------------------ *)
(* Result records *)

type record = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  extra : (string * J.t) list;  (** traced breakdown tables *)
}

let metrics_json ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ]))
       ms)

let record_json r =
  J.Obj
    ([
       ("workload", J.Str r.workload);
       ("seed", J.Int r.seed);
       ("traced", J.Bool r.traced);
       ("correct", J.Bool r.correct);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("metrics", metrics_json r.metrics);
     ]
    @ r.extra)

let float_of = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let record_of_json j =
  let str k = J.to_string_opt (J.member k j) in
  let int k = Option.value (J.to_int_opt (J.member k j)) ~default:0 in
  let bool k = J.member k j = Some (J.Bool true) in
  let metrics =
    match J.member "metrics" j with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (name, v) ->
            match (float_of (J.member "value" v), J.to_string_opt (J.member "unit" v)) with
            | Some value, Some unit -> Some { name; value; unit }
            | _ -> None)
          kvs
    | _ -> []
  in
  {
    workload = Option.value (str "workload") ~default:"?";
    seed = int "seed";
    traced = bool "traced";
    correct = bool "correct";
    attempted = int "attempted";
    failed = int "failed";
    metrics;
    extra =
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (J.member k j))
        [ "layers"; "setup_layers" ];
  }

(** The one-line JSON result a run ends with: exactly the metrics
    [declared] (all of them when no declaration is available). *)
let result_line r ~declared =
  let ms =
    match declared with
    | None -> r.metrics
    | Some names -> List.filter (fun x -> List.mem x.name names) r.metrics
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", metrics_json ms);
       ])

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type declared = {
  e2e : (string * [ `Lower | `Higher ] * float) list;  (** name, better, bound *)
  layer : string list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let declared path =
  match J.of_string (read_file path) with
  | exception Sys_error _ -> None
  | Error _ -> None
  | Ok j ->
      let list k = match J.member k j with Some (J.List l) -> l | _ -> [] in
      let name x = Option.value (J.to_string_opt (J.member "name" x)) ~default:"" in
      Some
        {
          e2e =
            List.map
              (fun x ->
                ( name x,
                  (if J.to_string_opt (J.member "better" x) = Some "higher" then `Higher
                   else `Lower),
                  Option.value (float_of (J.member "bound" x)) ~default:0.0 ))
              (list "end_to_end");
          layer = List.map name (list "per_layer");
        }

(** The metric names a run must print on its result line. *)
let names d ~traced = if traced then d.layer else List.map (fun (n, _, _) -> n) d.e2e

(* ------------------------------------------------------------------ *)
(* Files of runs: summaries and compare *)

(** Every value of metric [name] in [rs]. *)
let values rs name =
  List.concat_map
    (fun r -> List.filter_map (fun x -> if x.name = name then Some x.value else None) r.metrics)
    rs

(** A file of runs, with each workload's median and quartiles per metric. *)
let file_json records =
  let workloads = List.sort_uniq compare (List.map (fun r -> (r.workload, r.traced)) records) in
  let summary =
    List.map
      (fun (w, traced) ->
        let rs = List.filter (fun r -> r.workload = w && r.traced = traced) records in
        let names =
          List.sort_uniq compare (List.concat_map (fun r -> List.map (fun x -> x.name) r.metrics) rs)
        in
        ( (if traced then w ^ " (traced)" else w),
          J.Obj
            (List.map
               (fun name ->
                 let vals = values rs name in
                 let q1, _, q3 =
                   if List.length vals >= 2 then Stats.quartiles vals
                   else
                     let v = List.hd vals in
                     (v, v, v)
                 in
                 ( name,
                   J.Obj
                     [
                       ("n", J.Int (List.length vals));
                       ("median", J.Float (Stats.median vals));
                       ("q1", J.Float q1);
                       ("q3", J.Float q3);
                       ("spread", J.Float (Stats.rel_iqr vals));
                     ] ))
               names) ))
      workloads
  in
  J.Obj
    [
      ("schema", J.Str "terra-perf-1");
      ("runs", J.List (List.map record_json records));
      ("summary", J.Obj summary);
    ]

let read_runs path =
  match J.of_string (read_file path) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j -> (
      match J.member "runs" j with
      | Some (J.List l) -> List.map record_of_json l
      | _ -> failwith (path ^ ": no runs"))

type verdict = Improved | Regressed | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(** The choosing-metrics rule, parent [a] against change [b]:
    {ul
    {- regressed when [b]'s median is worse than [a]'s by more than the
       bound (a share of [a]'s median);}
    {- improved only when [b] wins at least 9/10 of the pairs and the
       medians differ by more than [a]'s quartile spread;}
    {- unresolved, not unchanged, when either side's quartile spread is
       wider than the bound, unless every run of [b] reads better than
       every run of [a];}
    {- unchanged otherwise.}} *)
let verdict ~better ~bound a b =
  let better_than x y = match better with `Lower -> x < y | `Higher -> x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let worse_by =
    let d = match better with `Lower -> mb -. ma | `Higher -> ma -. mb in
    if ma = 0.0 then if d > 0.0 then infinity else 0.0 else d /. Float.abs ma
  in
  (* runs pair up in file order: the i-th parent run with the i-th change run *)
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let pairs = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> better_than y x) pairs) in
  let iqr_a =
    if List.length a < 2 then 0.0
    else
      let q1, _, q3 = Stats.quartiles a in
      q3 -. q1
  in
  if worse_by > bound then Regressed
  else if
    10 * wins >= 9 * List.length pairs && better_than mb ma && Float.abs (mb -. ma) > iqr_a
  then Improved
  else if
    (Stats.rel_iqr a > bound || Stats.rel_iqr b > bound)
    && not (List.for_all (fun y -> List.for_all (better_than y) a) b)
  then Unresolved
  else Unchanged

(** Verdict rows for every workload x end-to-end metric present in both
    files (untraced runs only). *)
let compare_files ~(declared : declared option) a b =
  let bounds =
    (match declared with Some d -> d.e2e | None -> [])
    @ List.map (fun (n, better) -> (n, better, 0.0)) exact
  in
  let untraced w = List.filter (fun r -> r.workload = w && not r.traced) in
  let ra = read_runs a and rb = read_runs b in
  let workloads =
    List.sort_uniq compare (List.filter_map (fun r -> if r.traced then None else Some r.workload) ra)
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (name, better, bound) ->
          match (values (untraced w ra) name, values (untraced w rb) name) with
          | [], _ | _, [] -> None
          | va, vb ->
              Some (w, name, bound, Stats.median va, Stats.median vb, verdict ~better ~bound va vb))
        bounds)
    workloads
