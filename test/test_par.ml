(* Multicore sharding: the tpool primitives, engine isolation across
   domains, and the serve pool's concurrent checkout/recycle discipline.

   The load-bearing property everywhere here is determinism: engines on
   separate domains must produce byte-identical outputs, diagnostics,
   and fingerprints to a sequential run, because nothing an engine
   touches is shared. *)

let quick = Harness.quick
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Tpool primitives *)

let tpool_tests =
  [
    quick "pool: map returns results in input order" (fun () ->
        let items = Array.init 100 (fun i -> i) in
        let out =
          Tpool.Pool.with_pool ~domains:4 (fun p ->
              Tpool.Pool.map p (fun i -> i * i) items)
        in
        checkb "ordered" true (out = Array.init 100 (fun i -> i * i)));
    quick "pool: map_workers hands out exclusive worker indices" (fun () ->
        let domains = 4 in
        let per_worker = Array.init domains (fun _ -> Atomic.make 0) in
        let busy = Array.init domains (fun _ -> Atomic.make false) in
        let overlap = Atomic.make false in
        let out =
          Tpool.Pool.with_pool ~domains (fun p ->
              Tpool.Pool.map_workers p
                (fun ~worker i ->
                  if Atomic.exchange busy.(worker) true then
                    Atomic.set overlap true;
                  Atomic.incr per_worker.(worker);
                  let r = i + 1 in
                  Atomic.set busy.(worker) false;
                  r)
                (Array.init 200 (fun i -> i)))
        in
        checkb "no two jobs share a worker slot at once" false
          (Atomic.get overlap);
        checki "every job ran exactly once" 200
          (Array.fold_left (fun a c -> a + Atomic.get c) 0 per_worker);
        checkb "results ordered" true
          (out = Array.init 200 (fun i -> i + 1)));
    quick "pool: a raising job surfaces on the caller, pool survives"
      (fun () ->
        Tpool.Pool.with_pool ~domains:2 (fun p ->
            checkb "exception re-raised" true
              (match
                 Tpool.Pool.map p
                   (fun i -> if i = 3 then failwith "boom" else i)
                   (Array.init 8 (fun i -> i))
               with
              | exception Failure _ -> true
              | _ -> false);
            (* the pool is still serviceable after the failed batch *)
            let out = Tpool.Pool.map p (fun i -> i * 2) [| 1; 2; 3 |] in
            checkb "pool survives" true (out = [| 2; 4; 6 |])));
  ]

(* ------------------------------------------------------------------ *)
(* Engine isolation across domains *)

(* One corpus item: build a fresh checked engine, run the source, and
   reduce the run to the triple that must be reproducible — captured
   output, diagnostic (code + message, which embeds heap addresses for
   san traps), and the engine fingerprint after the run. *)
let run_item (file, src) : string * string * string =
  let eng = Terrastd.create ~checked:true () in
  let out, result = Terra.Engine.run_capture_protected eng ~file src in
  let diag =
    match result with
    | Ok _ -> "ok"
    | Error d -> d.Terra.Diag.code ^ ": " ^ d.Terra.Diag.message
  in
  (out, diag, Terra.Engine.fingerprint eng)

let corpus () =
  let golden name = (name, Harness.read_file (Harness.golden name)) in
  [
    ( "good.t",
      "x = 0 for i=1,10 do x = x + i end print(x)\n\
       terra f(n : int32) return n * 2 + 1 end print(f(20))" );
    ("rand.t", "for i=1,4 do print(math.random(1000)) end");
    ( "trap.t",
      "terra d(n : int32) : int32 return 10 / n end print(d(0))" );
    golden "double_free.t";
    golden "use_after_free.t";
    golden "invalid_free.t";
    golden "leak.t";
  ]

let stress_tests =
  [
    quick "4 domains of engines match sequential runs byte for byte"
      (fun () ->
        let corpus = corpus () in
        (* sequential reference triples, one fresh engine per item *)
        let expected = List.map run_item corpus in
        (* the same corpus three times over, drained by 4 domains with a
           fresh engine per job; dynamic scheduling means every
           interleaving of engine construction and execution is fair
           game, and none of it may show up in the results *)
        let jobs =
          Array.of_list (corpus @ corpus @ corpus)
        in
        let got =
          Tpool.Pool.with_pool ~domains:4 (fun p ->
              Tpool.Pool.map p run_item jobs)
        in
        let expected = Array.of_list (expected @ expected @ expected) in
        Array.iteri
          (fun i (out, diag, fp) ->
            let eout, ediag, efp = expected.(i) in
            let file, _ = jobs.(i) in
            checks (file ^ " output") eout out;
            checks (file ^ " diagnostic") ediag diag;
            checks (file ^ " fingerprint") efp fp)
          got);
    quick "math.random: interleaved engines draw independent streams"
      (fun () ->
        (* satellite regression: the PRNG seed lives in per-interpreter
           state, so two engines alternating draws behave exactly like
           two engines running alone *)
        let draw = "print(math.random(32768))" in
        let solo () =
          let eng = Terrastd.create () in
          List.init 6 (fun _ ->
              fst (Terra.Engine.run_capture eng draw))
        in
        let expected = solo () in
        let a = Terrastd.create () and b = Terrastd.create () in
        let got_a = ref [] and got_b = ref [] in
        for _ = 1 to 6 do
          got_a := fst (Terra.Engine.run_capture a draw) :: !got_a;
          got_b := fst (Terra.Engine.run_capture b draw) :: !got_b
        done;
        checkb "engine A matches a solo engine" true
          (List.rev !got_a = expected);
        checkb "engine B matches a solo engine" true
          (List.rev !got_b = expected));
  ]

(* ------------------------------------------------------------------ *)
(* Serve pool under concurrency *)

let pool_tests =
  [
    quick "checkout/recycle hammered from 4 domains never double-issues"
      (fun () ->
        let made = Atomic.make 0 in
        let make () =
          Atomic.incr made;
          Terra.Engine.create ()
        in
        let pool = Serve.Pool.create ~make ~size:3 ~recycle_after:5 in
        let held = Array.init 3 (fun _ -> Atomic.make false) in
        let double_issue = Atomic.make false in
        let per_domain = 20 in
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for i = 1 to per_domain do
                    let s = Serve.Pool.checkout pool in
                    if Atomic.exchange held.(s.Serve.Pool.id) true then
                      Atomic.set double_issue true;
                    (* touch the engine while holding the slot: the
                       mutex hand-off must make this race-free *)
                    ignore
                      (Terra.Engine.run_capture s.Serve.Pool.eng
                         (Printf.sprintf "x = %d" i));
                    Atomic.set held.(s.Serve.Pool.id) false;
                    Serve.Pool.checkin pool s ~anomaly:None
                  done))
        in
        List.iter Domain.join domains;
        checkb "no slot was ever checked out twice" false
          (Atomic.get double_issue);
        let total =
          Array.fold_left
            (fun a (s : Serve.Pool.slot) -> a + s.Serve.Pool.total)
            0 pool.Serve.Pool.slots
        in
        checki "every checkout was booked" (4 * per_domain) total;
        (* recycle_after=5 over 80 requests on 3 slots forces plenty of
           in-flight rebuilds; each one made a fresh engine *)
        checkb "wear recycling happened under contention" true
          (Atomic.get made > 3));
    quick "blocking checkout: more domains than engines still completes"
      (fun () ->
        let pool =
          Serve.Pool.create
            ~make:(fun () ->
              Terra.Engine.create ())
            ~size:1 ~recycle_after:1000
        in
        let domains =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for _ = 1 to 5 do
                    let s = Serve.Pool.checkout pool in
                    ignore
                      (Terra.Engine.run_capture s.Serve.Pool.eng
                         (Printf.sprintf "y = %d" d));
                    Serve.Pool.checkin pool s ~anomaly:None
                  done))
        in
        List.iter Domain.join domains;
        checki "all 20 requests went through the single engine" 20
          pool.Serve.Pool.slots.(0).Serve.Pool.total);
  ]

(* ------------------------------------------------------------------ *)
(* Compilation cache under domain concurrency *)

module Json = Tprof.Json
module Server = Serve.Server
module Ccache = Terra.Ccache
module Blobio = Terra.Blobio

let read_lines path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* Serve responses modulo scheduling: which pool slot answered is the
   one legitimate difference between --workers 1 and --workers 4. *)
let drop_engine line =
  match Json.of_string line with
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m
  | Ok (Json.Obj fields) ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "engine") fields))
  | Ok j -> Json.to_string j

let ccache_tests =
  [
    quick "4 workers hammering one cache dir match the sequential run"
      (fun () ->
        let scratch = Filename.temp_file "terra-par-ccache" "" in
        Sys.remove scratch;
        Sys.mkdir scratch 0o755;
        let rec rm_rf p =
          if Sys.file_exists p then
            if Sys.is_directory p then begin
              Array.iter
                (fun f -> rm_rf (Filename.concat p f))
                (Sys.readdir p);
              Sys.rmdir p
            end
            else Sys.remove p
        in
        Fun.protect
          ~finally:(fun () -> rm_rf scratch)
          (fun () ->
            (* 6 distinct programs, each requested 3 times: every domain
               races lookups, stores, and hits on the same directory *)
            let src i =
              Printf.sprintf
                "terra f(n : int32) : int32 return n * 2 + %d end print(f(%d))"
                i i
            in
            let line fields = Json.to_string (Json.Obj fields) in
            (* ... plus a hostile tenant whose runs trap and roll back and
               a leaky one whose engines are recycled; with an in-flight
               budget of 8 each tenant's requests run concurrently too.
               Three traps stay below the breaker threshold, so every one
               of them runs for real at any worker count. *)
            let divzero =
              line
                [
                  ( "src",
                    Json.Str "terra d(n : int32) return 10 / n end print(d(0))"
                  );
                  ("retries", Json.Int 0);
                  ("tenant", Json.Str "mallory");
                ]
            in
            let leak =
              line
                [
                  ( "src",
                    Json.Str
                      "local std = terralib.includec(\"stdlib.h\") terra \
                       l() var p = [&int32](std.malloc(64)) p[0] = 1 return \
                       p[0] end print(l())" );
                  ("tenant", Json.Str "frank");
                ]
            in
            let reqs =
              List.concat_map
                (fun round ->
                  List.init 6 (fun i ->
                      line
                        [
                          ("src", Json.Str (src i));
                          ( "tenant",
                            Json.Str (Printf.sprintf "t%d-%d" round i) );
                        ])
                  @ [ divzero; leak ])
                [ 0; 1; 2 ]
            in
            let nreqs = List.length reqs in
            let in_path = Filename.concat scratch "in.jsonl" in
            let oc = open_out in_path in
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              reqs;
            output_string oc "{\"op\":\"shutdown\"}\n";
            close_out oc;
            let run_serve ~workers ~cache_dir =
              let cc = Ccache.create ~dir:cache_dir () in
              let config =
                {
                  Server.default_config with
                  pool_size = 4;
                  recycle_after = 1000;
                  checked = true;
                  workers;
                  cache = Some cc;
                  default_budget =
                    { Serve.Tenant.default_budget with max_inflight = 8 };
                }
              in
              let s = Server.create ~config () in
              let out_path =
                Filename.concat scratch
                  (Printf.sprintf "out-w%d-%s.jsonl" workers
                     (Filename.basename cache_dir))
              in
              let ic = open_in in_path and oc = open_out out_path in
              let code = Server.run_channels s ic oc in
              close_in ic;
              close_out oc;
              checki "clean exit" 0 code;
              checki "no live heap bytes left in the pool" 0
                (Serve.Pool.live_bytes s.Server.pool);
              (List.map drop_engine (read_lines out_path), Ccache.counts cc)
            in
            let dir1 = Filename.concat scratch "cache1" in
            let dir4 = Filename.concat scratch "cache4" in
            let seq, c1 = run_serve ~workers:1 ~cache_dir:dir1 in
            let par, c4 = run_serve ~workers:4 ~cache_dir:dir4 in
            (* byte-identical reports, response by response *)
            checki "every request answered, then the drain" (nreqs + 1)
              (List.length seq);
            checki "same response count" (List.length seq) (List.length par);
            List.iteri
              (fun i (a, b) ->
                checks (Printf.sprintf "response %d" i) a b)
              (List.combine seq par);
            List.iter2
              (fun req resp ->
                let field k =
                  match Json.of_string resp with
                  | Ok j -> Json.member k j
                  | Error m -> Alcotest.failf "unparseable %S: %s" resp m
                in
                if req = divzero then
                  checkb "trap rolled back verified" true
                    (field "code" = Some (Json.Str "trap.divzero")
                    && field "exit" = Some (Json.Int 2)
                    && field "rollback" = Some (Json.Str "verified"))
                else if req = leak then
                  checkb "leak reported and its engine recycled" true
                    (field "leaked_bytes" = Some (Json.Int 64)
                    && field "recycled" = Some (Json.Bool true))
                else
                  checkb "good run ok" true
                    (field "status" = Some (Json.Str "ok")))
              reqs
              (List.filteri (fun i _ -> i < nreqs) par);
            (* counter tie-out: every request is exactly one lookup, and
               every miss stored; races only shift the hit/miss split.
               A trap reruns its request degraded to opt 0, one more
               lookup under a key of its own. *)
            let lookups = nreqs + 3 and programs = 9 in
            checki "seq: one lookup per compile" lookups
              (c1.Ccache.c_hits + c1.Ccache.c_misses);
            checki "seq: misses = distinct programs" programs
              c1.Ccache.c_misses;
            checki "seq: stores = misses" c1.Ccache.c_misses
              c1.Ccache.c_stores;
            checki "par: one lookup per compile" lookups
              (c4.Ccache.c_hits + c4.Ccache.c_misses);
            checki "par: stores = misses" c4.Ccache.c_misses
              c4.Ccache.c_stores;
            checkb "par: every program missed at least once" true
              (c4.Ccache.c_misses >= programs);
            checki "seq: no bad entries" 0 c1.Ccache.c_bad_entries;
            checki "par: no bad entries" 0 c4.Ccache.c_bad_entries;
            (* no torn entries: last-writer-wins left whole files *)
            let entries dir =
              List.sort compare
                (List.filter
                   (fun f -> Filename.check_suffix f ".tcc")
                   (Array.to_list (Sys.readdir dir)))
            in
            checkb "same entry set as sequential" true
              (entries dir1 = entries dir4);
            List.iter
              (fun f ->
                let ic = open_in_bin (Filename.concat dir4 f) in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () ->
                    match
                      Blobio.read_framed ic ~magic:Ccache.entry_magic
                    with
                    | Ok payload ->
                        let e =
                          (Marshal.from_string payload 0 : Ccache.entry)
                        in
                        checki (f ^ ": version") Ccache.format_version
                          e.Ccache.e_version;
                        checks (f ^ ": key echo = filename")
                          (Filename.chop_suffix f ".tcc")
                          e.Ccache.e_key
                    | Error m -> Alcotest.failf "torn entry %s: %s" f m))
              (entries dir4);
            (* the hammered dir is fully warm for a fresh fleet *)
            let warm, cw = run_serve ~workers:4 ~cache_dir:dir4 in
            checkb "warm fleet reports identically" true (warm = par);
            checki "warm fleet compiles nothing" 0 cw.Ccache.c_misses;
            checki "warm fleet hits everything" lookups cw.Ccache.c_hits));
  ]

(* The serve loop's admission contract: a run waits for a free worker
   and for its tenant's in-flight budget, and is never rejected for
   arriving while a sibling runs.  So one tenant's back-to-back requests
   get the same responses, status and drain under every worker count —
   only the serving slot may differ. *)
let admission_tests =
  [
    quick "same-tenant runs answer identically at workers 1, 2 and 4"
      (fun () ->
        let dir = Filename.temp_file "terra-par-admission" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let path name = Filename.concat dir name in
        let lines =
          List.init 8 (fun i ->
              Json.to_string
                (Json.Obj
                   [
                     ( "src",
                       Json.Str
                         (Printf.sprintf
                            "terra f(n : int32) : int32 var s = 0 for i = \
                             0, n do s = s + i %% 7 end return s end \
                             print(f(%d))"
                            (20000 + i)) );
                     ("tenant", Json.Str "solo");
                   ]))
          @ [ {|{"op":"status"}|}; {|{"op":"shutdown"}|} ]
        in
        let oc = open_out (path "in.jsonl") in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc;
        let serve workers =
          let config =
            {
              Server.default_config with
              pool_size = 4;
              workers;
            }
          in
          let out = path (Printf.sprintf "out-w%d.jsonl" workers) in
          let ic = open_in (path "in.jsonl") and oc = open_out out in
          let code = Server.run_channels (Server.create ~config ()) ic oc in
          close_in ic;
          close_out oc;
          checki (Printf.sprintf "workers %d: clean exit" workers) 0 code;
          let got = List.map drop_engine (read_lines out) in
          Sys.remove out;
          got
        in
        let want = serve 1 in
        checki "eight runs, a status and the drain" 10 (List.length want);
        List.iter
          (fun l ->
            checkb "no run was rejected" false
              (Harness.contains_sub ~sub:"serve.rejected" l))
          want;
        List.iter
          (fun workers ->
            let got = serve workers in
            checki
              (Printf.sprintf "workers %d: response count" workers)
              (List.length want) (List.length got);
            List.iteri
              (fun i (a, b) ->
                checks
                  (Printf.sprintf "workers %d: response %d" workers i)
                  a b)
              (List.combine want got))
          [ 2; 4 ];
        Sys.remove (path "in.jsonl");
        Sys.rmdir dir);
  ]

let () =
  Alcotest.run "par"
    [
      ("tpool", tpool_tests);
      ("stress", stress_tests);
      ("pool", pool_tests);
      ("ccache", ccache_tests);
      ("admit", admission_tests);
    ]
