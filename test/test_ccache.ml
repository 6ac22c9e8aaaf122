(* Persistent content-addressed compilation cache: hit/miss/store laws,
   key sensitivity, a differential gate over the golden programs, the
   adversarial integrity battery (bit flips, truncation, hostile
   hand-built entries, version staleness), pack emit/preload, and the
   durable-recovery composition.

   The invariant under attack everywhere here: a cache may only ever
   change *when* compilation happens, never *what* runs.  Every corrupt
   or hostile entry must surface as a structured [ccache.bad-entry]
   followed by a transparent recompile whose observable behavior is
   byte-identical to a cacheless run — never a crash, hang, or wrong
   result. *)

open Terra
module Ir = Tvm.Ir
module Ccache = Terra.Ccache
module Json = Tprof.Json
module Server = Serve.Server
module Durable = Serve.Durable
module Pool = Serve.Pool

let quick = Harness.quick
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Scratch plumbing *)

let fresh_dir name =
  let d = Filename.temp_file ("terra-ccache-" ^ name ^ "-") "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_dir name f =
  let dir = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let entry_files dir =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".tcc")
       (Array.to_list (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Running programs against a cache *)

let prog = "terra f(n : int32) : int32 return n * 2 + 1 end print(f(20))"

(* Reduce a run to the triple that must be reproducible no matter what
   the cache did: captured output, structured diagnostic, and the engine
   fingerprint after the run.  (terra_run's exit code is a pure function
   of the diagnostic, so diag equality covers exit-code equality.) *)
let run_reduced ?ccache ?(checked = false) ?opt_level ?machine ?(file = "t.t")
    src =
  let e =
    Terrastd.create
      ~checked ?opt_level ?machine ?ccache ()
  in
  let out, r = Engine.run_capture_protected e ~file src in
  let diag =
    match r with
    | Ok _ -> "ok"
    | Error d -> d.Diag.code ^ ": " ^ d.Diag.message
  in
  (out, diag, Engine.fingerprint e)

(* Run [src] against a fresh handle on [dir]; returns the reduced triple
   and the handle's final counters. *)
let run_cached ?checked ?opt_level ?machine ~dir src =
  let cc = Ccache.create ~dir () in
  let triple = run_reduced ~ccache:cc ?checked ?opt_level ?machine src in
  (triple, Ccache.counts cc, cc)

(* ------------------------------------------------------------------ *)
(* Hit/miss/store laws *)

let law_tests =
  [
    quick "cold run stores, warm run hits, outputs byte-identical"
      (fun () ->
        with_dir "laws" (fun dir ->
            let reference = run_reduced prog in
            let cold, cc, _ = run_cached ~dir prog in
            checkb "cold run matches cacheless" true (cold = reference);
            checki "cold hits" 0 cc.Ccache.c_hits;
            checki "cold misses" 1 cc.Ccache.c_misses;
            checki "cold stores" 1 cc.Ccache.c_stores;
            checki "cold bad entries" 0 cc.Ccache.c_bad_entries;
            checki "one entry on disk" 1 (List.length (entry_files dir));
            let warm, wc, _ = run_cached ~dir prog in
            checkb "warm run matches cacheless" true (warm = reference);
            checki "warm hits" 1 wc.Ccache.c_hits;
            checki "warm misses" 0 wc.Ccache.c_misses;
            checki "warm stores" 0 wc.Ccache.c_stores;
            checki "warm bad entries" 0 wc.Ccache.c_bad_entries));
    quick "every lookup is exactly one hit or one miss, stores = misses"
      (fun () ->
        with_dir "tieout" (fun dir ->
            let src =
              {|
terra g() : int32 return 2 end
terra f(n : int32) : int32 return g() + n end
terra h(x : double) : double return x * 1.5 end
print(f(1)) print(f(2)) print(h(2.0)) print(g())
|}
            in
            let _, cc, _ = run_cached ~dir src in
            checki "three functions, three lookups" 3
              (cc.Ccache.c_hits + cc.Ccache.c_misses);
            checki "every miss stored" cc.Ccache.c_misses cc.Ccache.c_stores;
            let _, wc, _ = run_cached ~dir src in
            checki "warm lookups" 3 (wc.Ccache.c_hits + wc.Ccache.c_misses);
            checki "all warm lookups hit" 3 wc.Ccache.c_hits));
    quick "profile phases mirror the handle counters" (fun () ->
        with_dir "phases" (fun dir ->
            let cc = Ccache.create ~dir () in
            let e = Harness.engine ~profile:true ~ccache:cc () in
            let _ = Harness.run_ok e prog in
            let phase name =
              match
                List.find_opt
                  (fun p -> p.Tprof.Report.p_name = name)
                  (Engine.profile e).Tprof.Report.phases
              with
              | Some p -> p.Tprof.Report.p_count
              | None -> 0
            in
            let c = Ccache.counts cc in
            checki "jit.ccache.miss = misses" c.Ccache.c_misses
              (phase "jit.ccache.miss");
            checki "jit.ccache.hit = hits" c.Ccache.c_hits
              (phase "jit.ccache.hit");
            checki "jit.ccache.store = stores" c.Ccache.c_stores
              (phase "jit.ccache.store");
            (* the warm engine: hit is visible in its profile and the
               compile/optimize phases never run *)
            let cc2 = Ccache.create ~dir () in
            let e2 = Harness.engine ~profile:true ~ccache:cc2 () in
            let _ = Harness.run_ok e2 prog in
            let phase2 name =
              match
                List.find_opt
                  (fun p -> p.Tprof.Report.p_name = name)
                  (Engine.profile e2).Tprof.Report.phases
              with
              | Some p -> p.Tprof.Report.p_count
              | None -> 0
            in
            checki "warm profile shows the hit" 1 (phase2 "jit.ccache.hit");
            checki "warm engine never compiled" 0 (phase2 "jit.compile");
            checki "warm engine never optimized" 0 (phase2 "jit.optimize")));
    quick "a dirless handle is a process-local cache" (fun () ->
        let cc = Ccache.create () in
        let a = run_reduced ~ccache:cc prog in
        let b = run_reduced ~ccache:cc prog in
        checkb "same output" true (a = b);
        let c = Ccache.counts cc in
        checki "second engine hit the overlay" 1 c.Ccache.c_hits;
        checki "one miss total" 1 c.Ccache.c_misses;
        checki "nothing written anywhere" 1 c.Ccache.c_stores);
    quick "terralib.cachestats() surfaces the counters to Lua" (fun () ->
        with_dir "stats" (fun dir ->
            let cc = Ccache.create ~dir () in
            let e = Harness.engine ~ccache:cc () in
            let out =
              Harness.run_ok e
                (prog
               ^ "\nlocal s = terralib.cachestats()\n\
                  print(s.enabled) print(s.stores) print(s.hits)")
            in
            checks "enabled, one store, zero hits" "41\ntrue\n1\n0\n" out;
            let plain = Harness.engine () in
            let out2 =
              Harness.run_ok plain
                "local s = terralib.cachestats() print(s.enabled) \
                 print(s.stores)"
            in
            checks "disabled engine reports zeros" "false\n0\n" out2));
  ]

(* ------------------------------------------------------------------ *)
(* Key sensitivity: every environment pin forces its own entry *)

let key_tests =
  let warm_counts ?checked ?opt_level ?machine ?(src = prog) dir =
    let _, c, _ = run_cached ?checked ?opt_level ?machine ~dir src in
    c
  in
  [
    quick "opt level is part of the key" (fun () ->
        with_dir "key-opt" (fun dir ->
            let _ = warm_counts ~opt_level:2 dir in
            let c = warm_counts ~opt_level:0 dir in
            checki "different opt level misses" 1 c.Ccache.c_misses;
            checki "no false hit" 0 c.Ccache.c_hits;
            checki "two entries coexist" 2 (List.length (entry_files dir));
            (* and each warm rerun finds its own *)
            let c2 = warm_counts ~opt_level:2 dir in
            checki "opt2 entry still hits" 1 c2.Ccache.c_hits));
    quick "--checked is part of the key" (fun () ->
        with_dir "key-chk" (fun dir ->
            let _ = warm_counts ~checked:false dir in
            let c = warm_counts ~checked:true dir in
            checki "checked run misses" 1 c.Ccache.c_misses;
            checki "no false hit" 0 c.Ccache.c_hits;
            checki "two entries coexist" 2 (List.length (entry_files dir))));
    quick "the machine model is part of the key" (fun () ->
        with_dir "key-mach" (fun dir ->
            let _ = warm_counts dir in
            let tiny = Tmachine.Machine.create Tmachine.Config.test_tiny in
            let c = warm_counts ~machine:tiny dir in
            checki "different machine misses" 1 c.Ccache.c_misses;
            checki "no false hit" 0 c.Ccache.c_hits;
            checki "two entries coexist" 2 (List.length (entry_files dir))));
    quick "any AST change is a different program" (fun () ->
        with_dir "key-ast" (fun dir ->
            let _ = warm_counts dir in
            let changed =
              "terra f(n : int32) : int32 return n * 2 + 2 end print(f(20))"
            in
            let c = warm_counts ~src:changed dir in
            checki "changed body misses" 1 c.Ccache.c_misses;
            checki "no false hit" 0 c.Ccache.c_hits;
            checki "two entries coexist" 2 (List.length (entry_files dir));
            (* the original is untouched and still hot *)
            let c2 = warm_counts dir in
            checki "original still hits" 1 c2.Ccache.c_hits));
  ]

(* ------------------------------------------------------------------ *)
(* Differential gate: golden programs, cold vs warm vs no cache *)

let differential_tests =
  let corpus =
    [
      "double_free.t";
      "heap_overflow.t";
      "invalid_free.t";
      "leak.t";
      "use_after_free.t";
    ]
  in
  let run_golden ?ccache name =
    let src = Harness.read_file (Harness.golden name) in
    run_reduced ?ccache ~checked:true ~file:name src
  in
  [
    quick "golden programs: cold = warm = cacheless, diagnostics included"
      (fun () ->
        List.iter
          (fun name ->
            with_dir "diff" (fun dir ->
                let reference = run_golden name in
                let cc = Ccache.create ~dir () in
                let cold = run_golden ~ccache:cc name in
                let cc_counts = Ccache.counts cc in
                let wc = Ccache.create ~dir () in
                let warm = run_golden ~ccache:wc name in
                let wc_counts = Ccache.counts wc in
                let t (o, d, f) = o ^ "|" ^ d ^ "|" ^ f in
                checks (name ^ ": cold run") (t reference) (t cold);
                checks (name ^ ": warm run") (t reference) (t warm);
                checki (name ^ ": cold is clean") 0
                  cc_counts.Ccache.c_bad_entries;
                checki (name ^ ": warm is clean") 0
                  wc_counts.Ccache.c_bad_entries;
                checki (name ^ ": warm hits every stored entry")
                  cc_counts.Ccache.c_stores wc_counts.Ccache.c_hits;
                checki (name ^ ": nothing stored twice") 0
                  wc_counts.Ccache.c_stores))
          corpus);
    quick "a trapping program traps identically through the cache"
      (fun () ->
        with_dir "trap" (fun dir ->
            let src =
              "terra d(n : int32) : int32 return 10 / n end print(d(0))"
            in
            let reference = run_reduced ~checked:true src in
            let cold, _, _ = run_cached ~checked:true ~dir src in
            let warm, wc, _ = run_cached ~checked:true ~dir src in
            checkb "cold trap identical" true (cold = reference);
            checkb "warm trap identical" true (warm = reference);
            checki "warm ran from the cache" 1 wc.Ccache.c_hits));
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial integrity battery *)

(* Populate a dir with exactly one entry; hand the attack a mutator over
   the pristine bytes, then require: structured bad-entry, correct
   output, and self-heal (the recompile overwrites the damaged file —
   compilation is deterministic, so healed bytes = pristine bytes). *)
let attack ~ctx mutate =
  with_dir "attack" (fun dir ->
      let reference = run_reduced prog in
      let _ = run_cached ~dir prog in
      let file =
        match entry_files dir with
        | [ f ] -> Filename.concat dir f
        | l -> Alcotest.failf "%s: want 1 entry, have %d" ctx (List.length l)
      in
      let pristine = read_bytes file in
      write_bytes file (mutate ~file ~pristine);
      let got, c, cc = run_cached ~dir prog in
      checkb (ctx ^ ": output/diag/fingerprint identical to cacheless") true
        (got = reference);
      checki (ctx ^ ": exactly one bad entry") 1 c.Ccache.c_bad_entries;
      checki (ctx ^ ": no hit off damaged data") 0 c.Ccache.c_hits;
      checki (ctx ^ ": degraded to a miss") 1 c.Ccache.c_misses;
      checki (ctx ^ ": recompile stored") 1 c.Ccache.c_stores;
      (match Ccache.last_error cc with
      | Some msg ->
          checkb
            (ctx ^ ": structured code (got " ^ msg ^ ")")
            true
            (has_prefix ~prefix:"ccache.bad-entry: " msg)
      | None -> Alcotest.failf "%s: no last_error recorded" ctx);
      checkb (ctx ^ ": self-healed byte-identical") true
        (read_bytes file = pristine);
      (* and the healed entry is immediately hot again *)
      let _, c2, _ = run_cached ~dir prog in
      checki (ctx ^ ": healed entry hits") 1 c2.Ccache.c_hits)

let flip_at data off =
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
  Bytes.to_string b

(* Read / rewrite a pristine entry through the real framing, for
   hostile entries that are bitwise-valid frames over bad content. *)
let read_entry path : Ccache.entry =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Blobio.read_framed ic ~magic:Ccache.entry_magic with
      | Ok payload -> (Marshal.from_string payload 0 : Ccache.entry)
      | Error m -> Alcotest.failf "pristine entry unreadable: %s" m)

let framed_entry (e : Ccache.entry) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf Ccache.entry_magic;
  let payload = Marshal.to_string e [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (String.length payload));
  Buffer.add_bytes buf hdr;
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let adversarial_tests =
  [
    quick "bit flips at every stride are caught, healed, and harmless"
      (fun () ->
        (* one probe per ~1/24th of the file, so the sweep crosses the
           magic, the length field, the digest, and deep payload *)
        with_dir "flipscan" (fun dir ->
            let _ = run_cached ~dir prog in
            let file =
              Filename.concat dir (List.hd (entry_files dir))
            in
            let len = String.length (read_bytes file) in
            let stride = max 1 (len / 24) in
            let rec offs o acc =
              if o >= len then List.rev acc else offs (o + stride) (o :: acc)
            in
            List.iter
              (fun off ->
                attack
                  ~ctx:(Printf.sprintf "flip@%d/%d" off len)
                  (fun ~file:_ ~pristine -> flip_at pristine off))
              (offs 0 [])));
    quick "truncation ladder: every cut degrades structurally" (fun () ->
        List.iter
          (fun keep ->
            attack
              ~ctx:(Printf.sprintf "truncate-to-%d" keep)
              (fun ~file:_ ~pristine ->
                String.sub pristine 0 (min keep (String.length pristine - 1))))
          [ 0; 1; 8; 9; 25; 32; 33; 200; 1000000 ])
      (* 1000000 clamps to len-1: the one-byte-short cut *);
    quick "a framed non-entry payload is rejected, not unmarshalled"
      (fun () ->
        attack ~ctx:"junk-payload" (fun ~file:_ ~pristine:_ ->
            let buf = Buffer.create 64 in
            Buffer.add_string buf Ccache.entry_magic;
            let payload = "this is not a marshalled entry" in
            let hdr = Bytes.create 8 in
            Bytes.set_int64_le hdr 0 (Int64.of_int (String.length payload));
            Buffer.add_bytes buf hdr;
            Buffer.add_string buf (Digest.string payload);
            Buffer.add_string buf payload;
            Buffer.contents buf));
    quick "a version bump invalidates every old entry" (fun () ->
        attack ~ctx:"stale-version" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            framed_entry { e with Ccache.e_version = Ccache.format_version + 1 }));
    quick "a wrong key echo is rejected (entry filed under another name)"
      (fun () ->
        attack ~ctx:"key-echo" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            framed_entry
              {
                e with
                Ccache.e_key = String.make (String.length e.Ccache.e_key) '0';
              }));
    quick "a wrong function name is rejected" (fun () ->
        attack ~ctx:"name-swap" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            framed_entry { e with Ccache.e_name = e.Ccache.e_name ^ "x" }));
    quick "hostile IR: register indices past nregs" (fun () ->
        attack ~ctx:"reg-bound" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            framed_entry
              {
                e with
                Ccache.e_func = { e.Ccache.e_func with Ir.nregs = 0 };
              }));
    quick "hostile IR: call target past the function table" (fun () ->
        attack ~ctx:"call-bound" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            let f =
              {
                e.Ccache.e_func with
                Ir.nparams = 0;
                Ir.nregs = 1;
                Ir.code =
                  [|
                    Ir.Call (Some 0, 999999, []); Ir.Ret (Some (Ir.R 0));
                  |];
              }
            in
            framed_entry { e with Ccache.e_func = f }));
    quick "hostile IR: import index past the import table" (fun () ->
        attack ~ctx:"import-bound" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            let f =
              {
                e.Ccache.e_func with
                Ir.nparams = 0;
                Ir.nregs = 1;
                Ir.code =
                  [|
                    Ir.Ccall (Some 0, 999999, []); Ir.Ret (Some (Ir.R 0));
                  |];
              }
            in
            framed_entry { e with Ccache.e_func = f }));
    quick "hostile IR: code that runs off the end" (fun () ->
        attack ~ctx:"no-terminator" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            let f =
              {
                e.Ccache.e_func with
                Ir.nregs = 1;
                Ir.code = [| Ir.Mov (0, Ir.Ki 1L) |];
              }
            in
            framed_entry { e with Ccache.e_func = f }));
    quick "hostile IR: absurd frame size" (fun () ->
        attack ~ctx:"frame-bound" (fun ~file ~pristine:_ ->
            let e = read_entry file in
            framed_entry
              {
                e with
                Ccache.e_func =
                  { e.Ccache.e_func with Ir.frame_bytes = 1 lsl 28 };
              }));
    quick "an unwritable cache never fails a compile" (fun () ->
        (* point the handle at a path that is a *file*: every store
           fails, every lookup misses, the program is untouched *)
        let reference = run_reduced prog in
        let bogus = Filename.temp_file "terra-ccache-notadir" "" in
        Fun.protect
          ~finally:(fun () -> rm_rf bogus)
          (fun () ->
            let cc = Ccache.create ~dir:bogus () in
            let got = run_reduced ~ccache:cc prog in
            checkb "run unaffected" true (got = reference);
            match Ccache.last_error cc with
            | Some msg ->
                checkb "store failure is structured" true
                  (has_prefix ~prefix:"ccache.store-failed" msg)
            | None -> Alcotest.fail "store failure went unrecorded"));
  ]

(* ------------------------------------------------------------------ *)
(* Packs: --emit / --preload *)

let pack_tests =
  [
    quick "emit then preload round-trips across processes" (fun () ->
        with_dir "pack" (fun dir ->
            let pack = Filename.concat dir "app.tcp" in
            let reference = run_reduced prog in
            let cc = Ccache.create () in
            let cold = run_reduced ~ccache:cc prog in
            Ccache.save_pack cc pack;
            let cc2 = Ccache.create () in
            (match Ccache.load_pack cc2 pack with
            | Ok n -> checki "one artifact in the pack" 1 n
            | Error m -> Alcotest.failf "load_pack failed: %s" m);
            let warm = run_reduced ~ccache:cc2 prog in
            let c = Ccache.counts cc2 in
            checkb "cold = cacheless" true (cold = reference);
            checkb "preloaded = cacheless" true (warm = reference);
            checki "preloaded run hit" 1 c.Ccache.c_hits;
            checki "preloaded run never compiled" 0 c.Ccache.c_stores));
    quick "a warm directory run emits a complete pack" (fun () ->
        (* regression: disk hits must join the overlay, or a run that
           only ever *hits* a populated --cache DIR would --emit an
           empty pack *)
        with_dir "packwarm" (fun dir ->
            let cdir = Filename.concat dir "cache" in
            let pack = Filename.concat dir "app.tcp" in
            let reference = run_reduced prog in
            let cc_cold = Ccache.create ~dir:cdir () in
            let _ = run_reduced ~ccache:cc_cold prog in
            (* fresh handle over the same dir: this process never stores *)
            let cc_warm = Ccache.create ~dir:cdir () in
            let warm = run_reduced ~ccache:cc_warm prog in
            checki "warm run hit from disk" 1 (Ccache.counts cc_warm).Ccache.c_hits;
            checki "warm run stored nothing" 0
              (Ccache.counts cc_warm).Ccache.c_stores;
            Ccache.save_pack cc_warm pack;
            let cc2 = Ccache.create () in
            (match Ccache.load_pack cc2 pack with
            | Ok n -> checki "the hit artifact is in the pack" 1 n
            | Error m -> Alcotest.failf "load_pack failed: %s" m);
            let preloaded = run_reduced ~ccache:cc2 prog in
            let c = Ccache.counts cc2 in
            checkb "warm = cacheless" true (warm = reference);
            checkb "preloaded = cacheless" true (preloaded = reference);
            checki "preloaded run hit" 1 c.Ccache.c_hits;
            checki "preloaded run never compiled" 0 c.Ccache.c_stores));
    quick "a corrupted pack is a structured load error" (fun () ->
        with_dir "packflip" (fun dir ->
            let pack = Filename.concat dir "app.tcp" in
            let cc = Ccache.create () in
            let _ = run_reduced ~ccache:cc prog in
            Ccache.save_pack cc pack;
            let data = read_bytes pack in
            write_bytes pack (flip_at data (String.length data / 2));
            let cc2 = Ccache.create () in
            (match Ccache.load_pack cc2 pack with
            | Ok _ -> Alcotest.fail "corrupt pack loaded"
            | Error _ -> ());
            (* the refusal leaves a perfectly good empty cache *)
            let got = run_reduced ~ccache:cc2 prog in
            checkb "run unaffected" true (got = run_reduced prog)));
    quick "a hostile pack entry degrades to bad-entry + recompile"
      (fun () ->
        with_dir "packhostile" (fun dir ->
            let pack = Filename.concat dir "app.tcp" in
            let reference = run_reduced prog in
            (* capture a real entry, break its IR, re-pack it *)
            let _ = run_cached ~dir prog in
            let file = Filename.concat dir (List.hd (entry_files dir)) in
            let e = read_entry file in
            let bad =
              {
                e with
                Ccache.e_func =
                  {
                    e.Ccache.e_func with
                    Ir.nregs = 1;
                    Ir.code = [| Ir.Mov (0, Ir.Ki 1L) |];
                  };
              }
            in
            let oc = open_out_bin pack in
            Blobio.write_framed oc ~magic:Ccache.pack_magic
              (Marshal.to_string ([ bad ] : Ccache.entry list) []);
            close_out oc;
            let cc = Ccache.create () in
            (match Ccache.load_pack cc pack with
            | Ok n -> checki "hostile entry loads lazily" 1 n
            | Error m -> Alcotest.failf "load_pack failed: %s" m);
            let got = run_reduced ~ccache:cc prog in
            let c = Ccache.counts cc in
            checkb "output unaffected" true (got = reference);
            checki "hostile preload counted" 1 c.Ccache.c_bad_entries;
            checki "recompiled transparently" 1 c.Ccache.c_stores));
  ]

(* ------------------------------------------------------------------ *)
(* Composition: durable recovery replays against any cache state *)

let durable_tests =
  let config ?cache () =
    {
      Server.default_config with
      pool_size = 2;
      recycle_after = 64;
      checked = true;
      verify_rollback = true;
      cache = (match cache with Some c -> Some c | None -> None);
    }
  in
  let run_line src =
    Json.to_string (Json.Obj [ ("op", Json.Str "run"); ("src", Json.Str src) ])
  in
  let reqs =
    [
      run_line "terra f() return 40 + 2 end print(f())";
      run_line "terra d(n : int32) : int32 return 10 / n end print(d(0))";
      run_line "terra f() return 40 + 2 end print(f())";
      run_line "terra g(n : int32) : int32 return n * n end print(g(9))";
    ]
  in
  let feed server line =
    match Server.handle server line with
    | Some (j, `Continue) -> j
    | _ -> Alcotest.failf "request %S did not answer" line
  in
  let slot_fps (server : Server.t) =
    Array.init
      (Pool.size server.Server.pool)
      (fun i ->
        Engine.fingerprint server.Server.pool.Pool.slots.(i).Pool.eng)
  in
  let close_journal (server : Server.t) =
    match server.Server.journal with
    | Some j -> Durable.close j
    | None -> ()
  in
  [
    quick "recovery replays byte-identically against warm and cold caches"
      (fun () ->
        with_dir "durable" (fun jdir ->
            with_dir "cache" (fun cdir ->
                (* journaled session compiled through a shared cache *)
                let server =
                  Server.create
                    ~config:(config ~cache:(Ccache.create ~dir:cdir ()) ())
                    ()
                in
                (match
                   Server.enable_durability server ~dir:jdir ~interval:100 ()
                 with
                | Ok () -> ()
                | Error d -> Alcotest.failf "durable: %s" d.Diag.code);
                List.iter (fun l -> ignore (feed server l)) reqs;
                let want = slot_fps server in
                close_journal server;
                let recover ~ctx cfg =
                  match Server.recover ~config:cfg ~dir:jdir () with
                  | Error d ->
                      Alcotest.failf "%s: recovery failed: %s" ctx d.Diag.code
                  | Ok (srv, _) ->
                      Array.iteri
                        (fun i fp ->
                          checks
                            (Printf.sprintf "%s: slot %d fingerprint" ctx i)
                            fp
                            (Engine.fingerprint
                               srv.Server.pool.Pool.slots.(i).Pool.eng))
                        want;
                      close_journal srv
                in
                (* warm: the same populated dir; replay compiles nothing *)
                let warm = Ccache.create ~dir:cdir () in
                recover ~ctx:"warm" (config ~cache:warm ());
                checkb "warm replay actually hit the cache" true
                  ((Ccache.counts warm).Ccache.c_hits > 0);
                (* cold: an empty dir; replay recompiles everything *)
                with_dir "cache-cold" (fun cold_dir ->
                    recover ~ctx:"cold"
                      (config ~cache:(Ccache.create ~dir:cold_dir ()) ()));
                (* no cache at all: the cache field is excluded from the
                   config digest precisely so this recovers too *)
                recover ~ctx:"cacheless" (config ()))));
  ]

let () =
  Alcotest.run "ccache"
    [
      ("laws", law_tests);
      ("keys", key_tests);
      ("differential", differential_tests);
      ("adversarial", adversarial_tests);
      ("packs", pack_tests);
      ("durable", durable_tests);
    ]
