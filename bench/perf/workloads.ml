(** The five workloads.  Each builds its system state in [setup] (timed,
    repeated), prepares its oracle in [ready] (untimed), and runs one
    fixed batch of ops per [round]; the runner repeats rounds for the
    run's duration.  With {!Spans.on} the ops go through {!Mirror}. *)

open Terra
module Vm = Tvm.Vm
module J = Tprof.Json

type size = {
  gemm_calls : int;  (** per round *)
  mandel : int * int * int;  (** width, height, MAXIT *)
  mandel_runs : int;  (** per round *)
  programs : int;  (** distinct scripts generated *)
  programs_per_round : int;
  serve_mem : int;  (** [--mem] of the served engines *)
  serve_mandel : int * int;
  serve_per_round : int;
  ckpt_interval : int;
  setups : int;  (** set-ups per run; setup_s is their median *)
  min_rounds : int;
  min_traced : int;  (** rounds of each kind a traced run needs at least *)
}

let mib = 1024 * 1024

(* Rounds hold at least 20 ops, so a per-round p90 has ops beyond it;
   a serve round is exactly one shuffled block of the request mix. *)
let full =
  {
    gemm_calls = 20;
    mandel = (128, 48, 64);
    mandel_runs = 20;
    programs = 1000;
    programs_per_round = 200;
    serve_mem = 64 * mib;
    serve_mandel = (64, 24);
    serve_per_round = Array.length Gen.block;
    ckpt_interval = 32;
    setups = 3;
    min_rounds = 3;
    min_traced = 2;
  }

(** Every path of {!full} at a size that runs in a fraction of a second. *)
let smoke =
  {
    gemm_calls = 1;
    mandel = (32, 12, 16);
    mandel_runs = 2;
    programs = 12;
    programs_per_round = 6;
    serve_mem = 16 * mib;
    serve_mandel = (16, 6);
    serve_per_round = 5;
    ckpt_interval = 4;
    setups = 1;
    min_rounds = 1;
    min_traced = 1;
  }

type env = {
  size : size;
  seed : int;
  serve_exe : string;
  scratch : string;  (** durable directories go here *)
}

type sample = { ns : int; ok : bool; fuel : int; gflops : float option }

type t = {
  setup : unit -> unit;  (** timed; builds the state from scratch *)
  teardown : unit -> unit;  (** drops the state of a set-up not used *)
  ready : unit -> unit;  (** untimed oracle preparation *)
  round : (sample -> unit) -> unit;
  finish : unit -> bool;  (** final checks; stops any child *)
  child : unit -> int option;  (** pid of the process under test, if not this one *)
}

(** One op: a root span "op" in the traced phase, timed either way. *)
let timed_op f =
  incr Spans.op_id;
  let t0 = Spans.now_ns () in
  let r = Spans.span "op" f in
  (Spans.now_ns () - t0, r)

let get r = match !r with Some v -> v | None -> failwith "workload not set up"

(* ------------------------------------------------------------------ *)
(* dgemm *)

let gemm_n = 96

(* The BENCH_10 "Terra (auto-tuned)" n=96 row: per-call modeled output
   is data-independent, so every seed must reproduce it exactly. *)
let pinned_gflops = "24.502054"
let pinned_fuel = 1_216_340

let dgemm env =
  let elem = Types.double in
  let st = ref None and reference = ref [||] in
  let gemm ctx f m =
    if !Spans.on then Mirror.run_gemm ctx f m else Tuner.Gemm.run_gemm ctx f m
  in
  let setup () =
    let machine =
      Tmachine.Machine.create
        (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
    in
    let ctx = Context.create ~mem_bytes:(64 * mib) ~machine ~opt_level:2 () in
    let m = Tuner.Gemm.alloc_matrices ctx ~elem gemm_n in
    let rng = Random.State.make [| env.seed; 0xd9 |] in
    for i = 0 to (gemm_n * gemm_n) - 1 do
      Tuner.Gemm.set_elem ctx ~elem m.Tuner.Gemm.ma i
        (0.5 +. Random.State.float rng 0.5);
      Tuner.Gemm.set_elem ctx ~elem m.Tuner.Gemm.mb i
        (0.5 +. Random.State.float rng 0.5)
    done;
    let kernel =
      Tuner.Gemm.genkernel ctx ~elem
        { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 }
    in
    let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:48 in
    ignore (gemm ctx driver m);
    st := Some (ctx, m, driver)
  in
  let ready () =
    let ctx, m, _ = get st in
    reference := Tuner.Gemm.reference ctx ~elem m
  in
  let round emit =
    let ctx, m, driver = get st in
    for _ = 1 to env.size.gemm_calls do
      let s0 = Vm.steps ctx.Context.vm in
      let ns, (gflops, report) = timed_op (fun () -> gemm ctx driver m) in
      let fuel = Vm.steps ctx.Context.vm - s0 in
      Spans.add "tmachine.cycles" report.Tmachine.Machine.r_cycles;
      Spans.add "tmachine.bytes" (float_of_int report.Tmachine.Machine.r_bytes);
      List.iter
        (fun (lvl, (s : Tmachine.Cache.level_stats)) ->
          Spans.add
            ("tmachine." ^ String.lowercase_ascii lvl ^ "_misses")
            (float_of_int s.Tmachine.Cache.misses))
        report.Tmachine.Machine.r_level_stats;
      let ok =
        Tuner.Gemm.max_error ctx ~elem m !reference < 1e-9
        && fuel = pinned_fuel
        && Printf.sprintf "%.6f" gflops = pinned_gflops
      in
      emit { ns; ok; fuel; gflops = Some gflops }
    done
  in
  {
    setup;
    teardown = (fun () -> st := None);
    ready;
    round;
    finish = (fun () -> true);
    child = (fun () -> None);
  }

(** [tprof.on_overhead_pct]: the same dgemm call with the engine's
    Tprof probe off and on, alternated [pairs] times; medians compared. *)
let probe_overhead_pct pairs =
  let elem = Types.double in
  let machine =
    Tmachine.Machine.create (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
  in
  let ctx = Context.create ~mem_bytes:(64 * mib) ~machine ~opt_level:2 () in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem gemm_n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let kernel =
    Tuner.Gemm.genkernel ctx ~elem { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 }
  in
  let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:48 in
  ignore (Tuner.Gemm.run_gemm ctx driver m);
  let probe = Context.probe ctx in
  let time on =
    Tprof.Probe.set_on probe on;
    let t0 = Spans.now_ns () in
    ignore (Tuner.Gemm.run_gemm ctx driver m);
    float_of_int (Spans.now_ns () - t0)
  in
  let off = ref [] and on = ref [] in
  for _ = 1 to pairs do
    off := time false :: !off;
    on := time true :: !on
  done;
  Tprof.Probe.set_on probe false;
  100.0 *. ((Stats.median !on /. Stats.median !off) -. 1.0)

(* ------------------------------------------------------------------ *)
(* mandelbrot and scripts: Lua-Terra programs on one engine *)

let engine () = Terrastd.create ~mem_bytes:(64 * mib) ~opt_level:2 ()

(* One program run: a fresh observation slice, then the whole program
   with its output captured. *)
let run_program eng src =
  Spans.span "mlua.scope" (fun () -> Engine.reset_scope ~slice:true eng);
  if !Spans.on then Mirror.run_capture_protected eng src
  else Engine.run_capture_protected eng src

let program_op eng src expected =
  let vm = eng.Engine.ctx.Context.vm in
  let s0 = Vm.steps vm in
  let ns, (out, res) = timed_op (fun () -> run_program eng src) in
  let ok = Result.is_ok res && String.equal out expected in
  if not ok then
    prerr_endline
      (match res with
      | Error d -> "perf: program failed: " ^ Diag.to_string d
      | Ok _ -> Printf.sprintf "perf: wrong output:\n%s\nexpected:\n%s" out expected);
  { ns; ok; fuel = Vm.steps vm - s0; gflops = None }

let mandelbrot env =
  let w, h, maxit = env.size.mandel in
  let v = Gen.view (Random.State.make [| env.seed; 0x3a |]) ~w ~h ~maxit in
  let src = Gen.mandel_src v in
  let expected = ref "" and st = ref None in
  let setup () =
    let eng = engine () in
    ignore (run_program eng src);
    st := Some eng
  in
  let round emit =
    let eng = get st in
    for _ = 1 to env.size.mandel_runs do
      emit (program_op eng src !expected)
    done
  in
  {
    setup;
    teardown = (fun () -> st := None);
    ready = (fun () -> expected := Gen.mandel_expected v);
    round;
    finish = (fun () -> true);
    child = (fun () -> None);
  }

let scripts env =
  let progs = Gen.scripts ~seed:env.seed env.size.programs in
  (* the warm-up program is the same for every seed, so set-up does
     the same work whatever the seed *)
  let warm = (Gen.scripts ~seed:0 1).(0) in
  let st = ref None and next = ref 0 in
  let setup () =
    let eng = engine () in
    ignore (run_program eng warm.Gen.src);
    st := Some eng
  in
  let round emit =
    let eng = get st in
    for _ = 1 to env.size.programs_per_round do
      let p = progs.(!next mod Array.length progs) in
      incr next;
      emit (program_op eng p.Gen.src p.Gen.expected)
    done
  in
  {
    setup;
    teardown = (fun () -> st := None);
    ready = ignore;
    round;
    finish = (fun () -> true);
    child = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* serve and serve-durable *)

let member_str k j = J.to_string_opt (J.member k j)
let member_int k j = J.to_int_opt (J.member k j)

let check_response (r : Gen.request) line =
  match J.of_string line with
  | Error _ -> (false, 0, None)
  | Ok j ->
      let e = r.Gen.expect in
      let ok =
        member_str "status" j = Some e.Gen.e_status
        && member_str "code" j = e.Gen.e_code
        && member_str "output" j = Some e.Gen.e_output
        && member_str "rollback" j = e.Gen.e_rollback
      in
      if not ok then
        prerr_endline ("perf: unexpected response to " ^ r.Gen.line ^ "\n  " ^ line);
      (ok, Option.value (member_int "fuel" j) ~default:0, Some j)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dirs_made = ref 0

let fresh_dir env tag =
  incr dirs_made;
  let dir =
    Filename.concat env.scratch
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !dirs_made)
  in
  rm_rf dir;
  dir

(** Peak resident set of a live process, from /proc. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
            | _ -> go ()
          in
          go ())

(** Child processes started by this run, killed by the watchdog. *)
let children : int list ref = ref []

type child = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  dir : string option;
}

let spawn env ~durable =
  let dir = if durable then Some (fresh_dir env "durable") else None in
  let args =
    [ env.serve_exe; "--quiet"; "--mem"; string_of_int env.size.serve_mem ]
    @
    match dir with
    | Some d ->
        [ "--workers"; "2"; "--durable"; d; "--ckpt-interval";
          string_of_int env.size.ckpt_interval ]
    | None -> []
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process env.serve_exe (Array.of_list args) in_r out_w Unix.stderr
  in
  children := pid :: !children;
  Unix.close in_r;
  Unix.close out_w;
  { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w; dir }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let status_of c =
  send c {|{"op":"status"}|};
  match J.of_string (input_line c.ic) with
  | Ok j when member_str "op" j = Some "status" -> j
  | _ -> failwith "terra_serve: no status reply"

(* Graceful stop: end of input drains the server, which answers with
   its shutdown report and exits 0 when every pooled engine is clean. *)
let stop c =
  close_out c.oc;
  let rec last acc =
    match input_line c.ic with exception End_of_file -> acc | l -> last (Some l)
  in
  let report = last None in
  close_in c.ic;
  let _, status = Unix.waitpid [] c.pid in
  children := List.filter (( <> ) c.pid) !children;
  Option.iter rm_rf c.dir;
  status = Unix.WEXITED 0
  && match Option.map J.of_string report with
     | Some (Ok j) -> member_str "status" j = Some "clean"
     | _ -> false

(* The end-to-end serve workloads: terra_serve as a child over pipes,
   one closed-loop client.  [inflight] is 1 for serve, 2 (never one
   tenant twice) for serve-durable. *)
let serve_child env ~durable =
  let next = Gen.requests ~seed:env.seed ~tenants:8 ~mandel:env.size.serve_mandel in
  let st = ref None in
  let sent = ref 0 in
  let pending = Queue.create () in
  let setup () =
    let c = spawn env ~durable in
    ignore (status_of c);
    st := Some c
  in
  let teardown () =
    Option.iter (fun c -> ignore (stop c)) !st;
    st := None
  in
  let inflight = if durable then 2 else 1 in
  let complete c emit =
    let r, t0 = Queue.pop pending in
    let line = input_line c.ic in
    let ns = Spans.now_ns () - t0 in
    let ok, fuel, _ = check_response r line in
    emit { ns; ok; fuel; gflops = None }
  in
  let round emit =
    let c = get st in
    for _ = 1 to env.size.serve_per_round do
      while Queue.length pending < inflight do
        let r = next () in
        Queue.add (r, Spans.now_ns ()) pending;
        send c r.Gen.line;
        incr sent
      done;
      complete c emit
    done
  in
  let finish () =
    let c = get st in
    let drained = ref true in
    while not (Queue.is_empty pending) do
      complete c (fun s -> if not s.ok then drained := false)
    done;
    let status = status_of c in
    let committed_ok =
      (not durable)
      || J.to_int_opt
           (Option.bind (J.member "durable" status) (J.member "committed"))
         = Some !sent
    in
    if not committed_ok then prerr_endline "perf: durable.committed mismatch";
    let clean = stop c in
    if not clean then prerr_endline "perf: terra_serve did not drain cleanly";
    st := None;
    !drained && committed_ok && clean
  in
  let child () = Option.map (fun c -> c.pid) !st in
  { setup; teardown; ready = ignore; round; finish; child }

(* The traced serve workloads: the same server configuration in this
   process, each request through {!Mirror.handle} (traced rounds) or
   [Server.handle] (untraced rounds). *)
let serve_inproc env ~durable =
  let module S = Serve.Server in
  let next = Gen.requests ~seed:env.seed ~tenants:8 ~mandel:env.size.serve_mandel in
  let st = ref None and dir = ref None and runs = ref 0 in
  let config = { S.default_config with mem_bytes = Some env.size.serve_mem } in
  let setup () =
    let t = S.create ~config () in
    if durable then begin
      let d = fresh_dir env "durable" in
      dir := Some d;
      match S.enable_durability t ~dir:d ~interval:env.size.ckpt_interval () with
      | Ok () -> ()
      | Error d -> failwith (Diag.to_string d)
    end;
    ignore (S.handle t {|{"op":"status"}|});
    st := Some t
  in
  let close () =
    Option.iter
      (fun t -> Option.iter Serve.Durable.close t.S.journal)
      !st;
    Option.iter rm_rf !dir;
    st := None
  in
  let round emit =
    let t = get st in
    for _ = 1 to env.size.serve_per_round do
      let r = next () in
      incr runs;
      let ns, resp =
        timed_op (fun () ->
            match
              (if !Spans.on then Mirror.handle else S.handle) t r.Gen.line
            with
            | Some (resp, _) -> J.to_string resp
            | None -> "")
      in
      let ok, fuel, j = check_response r resp in
      (* fingerprints the request took, from the config and response:
         pre-request, rollback verify, and the WAL's post-checkin one *)
      (match Option.bind j (fun j -> member_int "engine" j) with
      | Some slot ->
          let fps =
            1
            + (if Option.bind j (fun j -> member_str "rollback" j) <> None then 1
               else 0)
            + if durable then 1 else 0
          in
          Spans.add "tvm.fingerprints" (float_of_int fps);
          if !Spans.on then begin
            let eng = t.S.pool.Serve.Pool.slots.(slot).Serve.Pool.eng in
            ignore (Spans.span "tvm.fingerprint" (fun () -> Engine.fingerprint eng))
          end
      | None -> ());
      emit { ns; ok; fuel; gflops = None }
    done
  in
  let finish () =
    let t = get st in
    let committed_ok =
      (not durable)
      || J.to_int_opt
           (Option.bind (J.member "durable" (S.status_json t)) (J.member "committed"))
         = Some !runs
    in
    close ();
    committed_ok
  in
  { setup; teardown = close; ready = ignore; round; finish; child = (fun () -> None) }

let names = [ "dgemm"; "mandelbrot"; "scripts"; "serve"; "serve-durable" ]

let make name env ~traced =
  match name with
  | "dgemm" -> dgemm env
  | "mandelbrot" -> mandelbrot env
  | "scripts" -> scripts env
  | "serve" ->
      if traced then serve_inproc env ~durable:false
      else serve_child env ~durable:false
  | "serve-durable" ->
      if traced then serve_inproc env ~durable:true
      else serve_child env ~durable:true
  | w -> invalid_arg ("unknown workload " ^ w)
