(* Durable sessions: engine checkpoint round-trips, WAL scanning and
   torn-tail degradation, checkpoint fallback, and the kill-point
   recovery matrix — for every durability event of a mixed soak, crash
   there, recover, and require the recovered pool fingerprints and
   per-tenant accounting to be byte-identical to the uninterrupted
   reference run at the same committed sequence number. *)

module Json = Tprof.Json
module Diag = Terra.Diag
module Engine = Terra.Engine
module Server = Serve.Server
module Durable = Serve.Durable
module Tenant = Serve.Tenant
module Pool = Serve.Pool

let quick = Harness.quick
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let jget j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "report missing field %S" k

let jint j k =
  match jget j k with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %S is not an int" k

(* ------------------------------------------------------------------ *)
(* Scratch directories and file plumbing *)

let fresh_dir name =
  let d = Filename.temp_file ("terra-durable-" ^ name ^ "-") "" in
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

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      write_bytes (Filename.concat dst f) (read_bytes (Filename.concat src f)))
    (Sys.readdir src)

let flip_byte data off =
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Engine checkpoints *)

(* The arena floor (statics + stack + 1 MiB of heap) keeps engines small
   to build: the matrix below recovers hundreds of pools. *)
let mem_bytes = 10 * 1024 * 1024

let make_eng () =
  Terrastd.create ~mem_bytes ~checked:true ~profile:true ()

let with_ckpt_file f =
  let path = Filename.temp_file "terra-ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let checkpoint_to path eng =
  let oc = open_out_bin path in
  Engine.checkpoint eng oc;
  close_out oc

let restore_from path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Engine.restore ~make:make_eng ic)

let alloc_src =
  "local std = terralib.includec(\"stdlib.h\") terra g() var p = \
   [&int32](std.malloc(32)) p[0] = 7 var v = p[0] std.free([&uint8](p)) \
   return v end print(g())"

let engine_tests =
  [
    quick "an engine checkpoint round-trips through a channel" (fun () ->
        let eng = make_eng () in
        let out, r =
          Engine.run_capture_protected eng
            "terra f(n : int32) return n * 3 + 1 end print(f(7))"
        in
        checkb "seed run succeeds" true (Result.is_ok r);
        checkb "seed run printed" true (String.length out > 0);
        with_ckpt_file (fun path ->
            checkpoint_to path eng;
            let eng' = restore_from path in
            checks "restored fingerprint matches"
              (Engine.fingerprint eng) (Engine.fingerprint eng');
            (* both engines must continue identically from here *)
            let o1, r1 = Engine.run_capture_protected eng alloc_src in
            let o2, r2 = Engine.run_capture_protected eng' alloc_src in
            checkb "continuations agree on success" (Result.is_ok r1)
              (Result.is_ok r2);
            checks "continuations print identically" o1 o2;
            checks "continuations end byte-identical"
              (Engine.fingerprint eng) (Engine.fingerprint eng')));
    quick "checkpoint damage is a structured ckpt.bad-file" (fun () ->
        let eng = make_eng () in
        ignore (Engine.run_capture_protected eng alloc_src);
        with_ckpt_file (fun path ->
            checkpoint_to path eng;
            let blob = read_bytes path in
            let expect_bad what data =
              let p = Filename.temp_file "terra-ckpt" ".bad" in
              Fun.protect
                ~finally:(fun () -> rm_rf p)
                (fun () ->
                  write_bytes p data;
                  let ic = open_in_bin p in
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () ->
                      match Engine.restore ~make:make_eng ic with
                      | _ -> Alcotest.failf "%s checkpoint restored" what
                      | exception Diag.Error d ->
                          checks (what ^ " code") "ckpt.bad-file" d.Diag.code))
            in
            expect_bad "flipped-payload"
              (flip_byte blob (String.length blob - 5));
            expect_bad "flipped-header" (flip_byte blob 2);
            expect_bad "truncated"
              (String.sub blob 0 (String.length blob / 2));
            expect_bad "empty" "";
            (* a format-1 checkpoint (fingerprints before page digests):
               the magic lies outside the digest, so only it changes *)
            let v2 = "TERRACKPT2\n" in
            checks "current magic" v2 (String.sub blob 0 (String.length v2));
            expect_bad "format-1"
              ("TERRACKPT1\n"
              ^ String.sub blob (String.length v2)
                  (String.length blob - String.length v2))));
  ]

(* ------------------------------------------------------------------ *)
(* Server-side durability plumbing *)

(* One config for every journal/recover pair in this file: recovery
   refuses a digest mismatch, so the pair must agree exactly. *)
let soak_config =
  {
    Server.default_config with
    pool_size = 2;
    recycle_after = 64;
    checked = true;
    verify_rollback = true;
    mem_bytes = Some mem_bytes;
  }

let run_line ?src ?tenant ?retries ?fail_alloc () =
  let opt k v f = match v with Some x -> [ (k, f x) ] | None -> [] in
  Json.to_string
    (Json.Obj
       (("op", Json.Str "run")
       :: (opt "src" src (fun s -> Json.Str s)
          @ opt "tenant" tenant (fun s -> Json.Str s)
          @ opt "retries" retries (fun n -> Json.Int n)
          @ opt "fail_alloc" fail_alloc (fun n -> Json.Int n))))

let good_src = "terra f() return 40 + 2 end print(f())"
let divzero_src = "terra d(n : int32) return 10 / n end print(d(0))"

let oob_src =
  "local std = terralib.includec(\"stdlib.h\") terra bad() var p = \
   [&int32](std.malloc(16)) p[5] = 1 std.free([&uint8](p)) return 0 end \
   print(bad())"

let leak_src =
  "local std = terralib.includec(\"stdlib.h\") terra l() var p = \
   [&int32](std.malloc(64)) p[0] = 1 return p[0] end print(l())"

(* The soak mix: mostly well-behaved, plus deterministic traps (breaker
   traffic), a sanitizer violation (rollback traffic), injected
   transient faults (retry traffic), a malformed line (parse-error
   traffic), and a leak (recycle traffic).  Everything here is
   journaled, so committed seq == served. *)
let soak_line i =
  match i mod 10 with
  | 0 -> run_line ~src:oob_src ~tenant:"hostile" ()
  | 3 | 6 -> run_line ~src:divzero_src ~tenant:"spiky" ()
  | 9 -> run_line ~src:alloc_src ~tenant:"flaky" ~fail_alloc:1 ~retries:2 ()
  | 5 when i mod 50 = 25 -> "{\"op\":"
  | 8 when i mod 50 = 38 -> run_line ~src:leak_src ~tenant:"leaky" ()
  | 1 | 4 | 7 -> run_line ~src:alloc_src ~tenant:"web" ()
  | _ -> run_line ~src:good_src ~tenant:"web" ()

let feed server line =
  match Server.handle server line with
  | Some (j, `Continue) -> j
  | Some (_, `Shutdown) -> Alcotest.failf "line %S shut the server down" line
  | None -> Alcotest.failf "line %S produced no response" line

let close_journal (server : Server.t) =
  match server.Server.journal with
  | Some j -> Durable.close j
  | None -> ()

let slot_fp (server : Server.t) id =
  Engine.fingerprint server.Server.pool.Pool.slots.(id).Pool.eng

let slot_fps (server : Server.t) =
  Array.init (Pool.size server.Server.pool) (slot_fp server)

(* Reference state at a committed sequence number: everything the
   acceptance criteria compare after recovery. *)
type refpoint = {
  rp_served : int;
  rp_tenants : Tenant.snapshot list;
  rp_fps : string array;
  rp_pool : string;
      (** the status pool block: wear and recycle counters, per-slot
          live bytes and fingerprints *)
}

let refpoint_of (server : Server.t) fps =
  {
    rp_served = server.Server.served;
    rp_tenants = List.map Tenant.snapshot (Tenant.all server.Server.tenants);
    rp_fps = Array.copy fps;
    rp_pool = Json.to_string (Pool.status_json server.Server.pool);
  }

(* Drive [n] soak requests through a durable server, recording the
   reference state after every commit.  Only the serving slot's
   fingerprint can change per request, so the running vector recomputes
   just that one. *)
let drive_soak server n =
  let fps = slot_fps server in
  let refs = Array.make (n + 1) (refpoint_of server fps) in
  for i = 1 to n do
    let resp = feed server (soak_line i) in
    (match Json.member "engine" resp with
    | Some (Json.Int id) -> fps.(id) <- slot_fp server id
    | _ -> ());
    refs.(i) <- refpoint_of server fps
  done;
  refs

let check_refpoint ~ctx (refs : refpoint array) (server : Server.t) k =
  let rp = refs.(k) in
  checki (ctx ^ ": served") rp.rp_served server.Server.served;
  let tenants =
    List.map Tenant.snapshot (Tenant.all server.Server.tenants)
  in
  checkb (ctx ^ ": per-tenant accounting is byte-identical") true
    (tenants = rp.rp_tenants);
  Array.iteri
    (fun id fp ->
      checks (Printf.sprintf "%s: slot %d fingerprint" ctx id) fp
        (slot_fp server id))
    rp.rp_fps;
  checks (ctx ^ ": pool status") rp.rp_pool
    (Json.to_string (Pool.status_json server.Server.pool))

let recover_ok ~ctx ?(config = soak_config) ?(interval = 100) dir =
  match Server.recover ~config ~dir ~interval () with
  | Ok (server, report) -> (server, report)
  | Error d -> Alcotest.failf "%s: recovery failed: %s" ctx d.Diag.code

(* Mirror of the WAL seal (Durable.seal is not exported): tests use it
   to append records the scanner must accept. *)
let sealed fields =
  let body = Json.to_string (Json.Obj fields) in
  Json.to_string
    (Json.Obj
       (fields @ [ ("md5", Json.Str (Digest.to_hex (Digest.string body))) ]))

let append_to_wal dir data =
  let wals =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".log")
         (Array.to_list (Sys.readdir dir)))
  in
  match List.rev wals with
  | newest :: _ ->
      let oc =
        open_out_gen
          [ Open_wronly; Open_append; Open_binary ]
          0o644
          (Filename.concat dir newest)
      in
      output_string oc data;
      close_out oc
  | [] -> Alcotest.fail "no WAL file to mutate"

let with_dir name f =
  let dir = fresh_dir name in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let durable_server ~dir ?(config = soak_config) ?(interval = 100) ?crash_at
    ?on_event () =
  let server = Server.create ~config () in
  (match Server.enable_durability server ~dir ~interval ?crash_at ?on_event ()
   with
  | Ok () -> ()
  | Error d -> Alcotest.failf "enable_durability failed: %s" d.Diag.code);
  server

(* Programs whose checkpoints are pinned byte for byte: code only,
   malloc/free, and statics plus heap pages left written. *)
let golden_srcs =
  [
    ("code", "terra f(n : int32) return n * 3 + 1 end print(f(7))");
    ("alloc", alloc_src);
    ( "pages",
      "local std = terralib.includec(\"stdlib.h\") local g = global(int64) \
       terra h() var p = [&int64](std.malloc(20000)) for i = 0, 2500 do \
       p[i] = i * 7 end g = p[2499] return g end print(h())" );
  ]

(* Every file of a durable server's directory after [n] soak requests,
   in name order. *)
let durable_files n =
  with_dir "golden" (fun dir ->
      let server = durable_server ~dir ~interval:4 () in
      for i = 1 to n do
        ignore (feed server (soak_line i))
      done;
      close_journal server;
      List.map
        (fun f -> (f, read_bytes (Filename.concat dir f)))
        (List.sort compare (Array.to_list (Sys.readdir dir))))

(* Checkpoint bytes, pinned: the arena's representation must never show
   in what an engine or a durable server writes. *)
let checkpoint_golden () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let engine_lines =
    List.concat_map
      (fun (mode, make) ->
        List.map
          (fun (name, src) ->
            let eng = make () in
            ignore (Engine.run_capture_protected eng src);
            let blob =
              with_ckpt_file (fun path ->
                  checkpoint_to path eng;
                  read_bytes path)
            in
            Printf.sprintf "engine %s %s %s" mode name (md5 blob))
          golden_srcs)
      [
        ("plain", fun () -> Terrastd.create ~mem_bytes ());
        ("checked", make_eng);
      ]
  in
  let durable_lines =
    List.map
      (fun (f, data) -> Printf.sprintf "durable %s %s" f (md5 data))
      (durable_files 10)
  in
  Harness.check_golden "checkpoint.golden" (engine_lines @ durable_lines)

let plumbing_tests =
  [
    quick "a durable session journals, checkpoints, and recovers" (fun () ->
        with_dir "basic" (fun dir ->
            let server = durable_server ~dir ~interval:4 () in
            let refs = drive_soak server 10 in
            ignore (Server.handle_oversize server 2_000_000);
            let after_oversize = refpoint_of server (slot_fps server) in
            close_journal server;
            let recovered, report = recover_ok ~ctx:"basic" dir in
            checki "recovered seq" 11 (jint report "seq");
            checki "nothing was discarded" 0 (jint report "discarded");
            checkb "no torn tail" true (jget report "torn" = Json.Null);
            (* barrier 8 (interval 4 over 11 commits), so the replayed
               suffix is requests 9..11 *)
            checki "barrier" 8 (jint report "barrier");
            checki "replayed" 3 (jint report "replayed");
            checki "served" 11 recovered.Server.served;
            checkb "state matches the reference run" true
              (refpoint_of recovered (slot_fps recovered) = after_oversize);
            ignore refs;
            close_journal recovered));
    quick "a second --durable on a journaled dir is refused" (fun () ->
        with_dir "refuse" (fun dir ->
            let server = durable_server ~dir () in
            close_journal server;
            let other = Server.create ~config:soak_config () in
            match Server.enable_durability other ~dir () with
            | Ok () -> Alcotest.fail "journaled dir was reused"
            | Error d -> checks "code" "durable.dir-not-empty" d.Diag.code));
    quick "recovery without a journal or checkpoint is structured"
      (fun () ->
        (match
           Server.recover ~config:soak_config
             ~dir:"/nonexistent/terra-durable" ()
         with
        | Ok _ -> Alcotest.fail "recovered from nothing"
        | Error d -> checks "no-journal" "recover.no-journal" d.Diag.code);
        (* crash before the first durability event: the WAL file exists
           but no checkpoint was ever completed *)
        with_dir "precrash" (fun dir ->
            (try
               let server = Server.create ~config:soak_config () in
               match Server.enable_durability server ~dir ~crash_at:1 () with
               | _ -> Alcotest.fail "expected a simulated crash"
             with Durable.Crashed n -> checki "crash event" 1 n);
            match Server.recover ~config:soak_config ~dir () with
            | Ok _ -> Alcotest.fail "recovered without a checkpoint"
            | Error d ->
                checks "no-checkpoint" "recover.no-checkpoint" d.Diag.code);
        (* only format-1 checkpoints: fingerprints are page-digest roots
           since format 2, so a format-1 journal's recorded fingerprints
           cannot tie out, and recovery refuses it at the magic, never
           as a fingerprint mismatch.  The magic lies outside the
           digest, so only it changes. *)
        with_dir "format1" (fun dir ->
            let server = durable_server ~dir ~interval:4 () in
            for i = 1 to 9 do
              ignore (feed server (soak_line i))
            done;
            close_journal server;
            let v2 = "TERRASRV2\n" in
            let n = String.length v2 in
            let ckpts =
              List.filter
                (String.starts_with ~prefix:"ckpt-")
                (Array.to_list (Sys.readdir dir))
            in
            checkb "checkpoints were written" true (ckpts <> []);
            List.iter
              (fun f ->
                let path = Filename.concat dir f in
                let blob = read_bytes path in
                checks (f ^ ": current magic") v2 (String.sub blob 0 n);
                write_bytes path
                  ("TERRASRV1\n" ^ String.sub blob n (String.length blob - n)))
              ckpts;
            match Server.recover ~config:soak_config ~dir () with
            | Ok _ -> Alcotest.fail "format-1 checkpoints recovered"
            | Error d ->
                checks "format-1" "recover.no-checkpoint" d.Diag.code;
                checkb "the refusal names the bad magic" true
                  (Harness.contains_sub ~sub:"bad magic" d.Diag.message)));
    quick "a run record that pins no grant fails recovery" (fun () ->
        (* every run record this journal format writes pins its grant;
           one without it is damage, not a legacy journal to recompute *)
        let replay name begin_extra =
          with_dir name (fun dir ->
              let server = durable_server ~dir () in
              ignore (feed server (soak_line 1));
              close_journal server;
              append_to_wal dir
                (sealed
                   ([
                      ("rec", Json.Str "begin"); ("seq", Json.Int 2);
                      ("line", Json.Str (soak_line 1)); ("slot", Json.Int 1);
                    ]
                   @ begin_extra)
                ^ "\n"
                ^ sealed
                    [
                      ("rec", Json.Str "end"); ("seq", Json.Int 2);
                      ("outcome", Json.Str "ok"); ("slot", Json.Int 1);
                      ("fp", Json.Null);
                    ]
                ^ "\n");
              Server.recover ~config:soak_config ~dir ())
        in
        (match replay "grant" [ ("grant", Json.Int 1_000_000) ] with
        | Ok (server, report) ->
            checki "the pinned record replays" 2 (jint report "seq");
            close_journal server
        | Error d -> Alcotest.failf "pinned record refused: %s" d.Diag.code);
        match replay "nogrant" [] with
        | Ok _ -> Alcotest.fail "a run record without a grant recovered"
        | Error d -> checks "code" "recover.bad-wal" d.Diag.code);
    quick "recovery refuses a mismatched server config" (fun () ->
        with_dir "config" (fun dir ->
            let server = durable_server ~dir () in
            ignore (feed server (soak_line 1));
            close_journal server;
            let other = { soak_config with recycle_after = 7 } in
            match Server.recover ~config:other ~dir () with
            | Ok _ -> Alcotest.fail "config mismatch recovered"
            | Error d ->
                checks "code" "recover.config-mismatch" d.Diag.code));
  ]

(* ------------------------------------------------------------------ *)
(* Torn tails and checkpoint fallback *)

let torn_tests =
  [
    quick "a torn WAL tail degrades to the last committed record"
      (fun () ->
        with_dir "torn" (fun dir ->
            let server = durable_server ~dir ~interval:100 () in
            let refs = drive_soak server 6 in
            close_journal server;
            let pristine = dir ^ ".pristine" in
            copy_dir dir pristine;
            Fun.protect
              ~finally:(fun () -> rm_rf pristine)
              (fun () ->
                let case name mutate check =
                  let d = dir ^ "." ^ name in
                  copy_dir pristine d;
                  Fun.protect
                    ~finally:(fun () -> rm_rf d)
                    (fun () ->
                      mutate d;
                      let recovered, report = recover_ok ~ctx:name d in
                      check report;
                      checki (name ^ ": seq") 6 (jint report "seq");
                      check_refpoint ~ctx:name refs recovered 6;
                      close_journal recovered)
                in
                let torn_reason report =
                  match jget report "torn" with
                  | Json.Obj _ as t ->
                      (match Json.member "reason" t with
                      | Some (Json.Str r) -> r
                      | _ -> "<none>")
                  | _ -> "<null>"
                in
                case "ragged"
                  (fun d -> append_to_wal d "{\"rec\":\"beg")
                  (fun report ->
                    checks "ragged reason" "unterminated final record"
                      (torn_reason report);
                    checki "ragged discards nothing" 0
                      (jint report "discarded"));
                case "flipped"
                  (fun d ->
                    append_to_wal d
                      (flip_byte
                         (sealed
                            [
                              ("rec", Json.Str "begin"); ("seq", Json.Int 7);
                              ("line", Json.Str "x");
                            ])
                         10
                      ^ "\n"))
                  (fun report ->
                    checks "flipped reason" "record digest mismatch"
                      (torn_reason report));
                case "unsealed"
                  (fun d ->
                    append_to_wal d
                      (Json.to_string
                         (Json.Obj [ ("rec", Json.Str "begin") ])
                      ^ "\n"))
                  (fun report ->
                    checks "unsealed reason" "record missing md5 seal"
                      (torn_reason report));
                case "uncommitted"
                  (fun d ->
                    append_to_wal d
                      (sealed
                         [
                           ("rec", Json.Str "begin"); ("seq", Json.Int 7);
                           ("line", Json.Str (soak_line 1));
                         ]
                      ^ "\n"))
                  (fun report ->
                    checkb "uncommitted is not torn" true
                      (jget report "torn" = Json.Null);
                    checki "uncommitted begin is discarded" 1
                      (jint report "discarded")))));
    quick "a corrupt newest checkpoint falls back one barrier" (fun () ->
        with_dir "fallback" (fun dir ->
            let server = durable_server ~dir ~interval:4 () in
            let refs = drive_soak server 10 in
            close_journal server;
            (* generations now: ckpt-4, ckpt-8, wal-4, wal-8 *)
            let newest = Filename.concat dir "ckpt-0000000008" in
            checkb "newest checkpoint exists" true (Sys.file_exists newest);
            let blob = read_bytes newest in
            write_bytes newest (flip_byte blob (String.length blob - 3));
            let recovered, report = recover_ok ~ctx:"fallback" dir in
            checki "fell back one barrier" 4 (jint report "barrier");
            checki "replayed the whole suffix" 6 (jint report "replayed");
            checki "seq" 10 (jint report "seq");
            (match jget report "skipped_checkpoints" with
            | Json.List [ Json.Obj kvs ] ->
                checkb "skip names the bad file" true
                  (List.assoc_opt "file" kvs
                  = Some (Json.Str "ckpt-0000000008"))
            | _ -> Alcotest.fail "expected one skipped checkpoint");
            check_refpoint ~ctx:"fallback" refs recovered 10;
            close_journal recovered));
  ]

(* ------------------------------------------------------------------ *)
(* The kill-point matrix *)

(* Crash-at N aborts before the Nth event's action, so the disk state
   at crash-at N is exactly the state after event N-1 — which the
   on_event hook snapshots.  Snapshot evt-n therefore *is* the crash
   state for crash-at n+1, and iterating every snapshot covers every
   kill point except crash-at 1 (no checkpoint yet; covered above). *)
let matrix_tests =
  [
    quick "recovery is exact at every kill point of a 200-request soak"
      (fun () ->
        with_dir "matrix" (fun dir ->
            let snap_root = fresh_dir "matrix-snaps" in
            Fun.protect
              ~finally:(fun () -> rm_rf snap_root)
              (fun () ->
                let requests = 200 in
                let committed_at = Hashtbl.create 512 in
                let journal = ref None in
                let on_event n =
                  let d =
                    Filename.concat snap_root (Printf.sprintf "evt-%04d" n)
                  in
                  copy_dir dir d;
                  Hashtbl.replace committed_at n
                    (match !journal with
                    | Some (j : Durable.t) -> j.Durable.committed
                    | None -> 0)
                in
                let server =
                  durable_server ~dir ~interval:16 ~on_event ()
                in
                journal := server.Server.journal;
                let refs = drive_soak server requests in
                let events =
                  (Option.get server.Server.journal).Durable.events
                in
                close_journal server;
                checkb "the soak produced a real event stream" true
                  (events > 2 * requests);
                checkb "the soak recycled leaky engines" true
                  (server.Server.pool.Pool.recycled_leak > 0);
                let discards = ref 0 in
                for n = 1 to events do
                  let ctx = Printf.sprintf "event %d" n in
                  let d =
                    Filename.concat snap_root (Printf.sprintf "evt-%04d" n)
                  in
                  match Server.recover ~config:soak_config ~dir:d () with
                  | Error e when e.Diag.code = "recover.no-checkpoint" ->
                      (* only legitimate before the very first checkpoint
                         rename: nothing was committed, and no completed
                         checkpoint file exists in the snapshot *)
                      checki (ctx ^ ": unrecoverable only at commit 0") 0
                        (Hashtbl.find committed_at n);
                      checkb (ctx ^ ": and only without a checkpoint") false
                        (Array.exists
                           (fun f ->
                             String.length f >= 5
                             && String.sub f 0 5 = "ckpt-"
                             && not (Filename.check_suffix f ".tmp"))
                           (Sys.readdir d))
                  | Error e ->
                      Alcotest.failf "%s: recovery failed: %s" ctx
                        e.Diag.code
                  | Ok (recovered, report) ->
                      let k = jint report "seq" in
                      (* zero loss, nothing phantom: recovery lands
                         exactly on what was committed when the crash
                         hit *)
                      checki (ctx ^ ": recovers the committed seq")
                        (Hashtbl.find committed_at n)
                        k;
                      let discarded = jint report "discarded" in
                      checkb (ctx ^ ": at most one uncommitted begin") true
                        (discarded = 0 || discarded = 1);
                      discards := !discards + discarded;
                      checkb (ctx ^ ": consistent snapshots are never torn")
                        true
                        (jget report "torn" = Json.Null);
                      check_refpoint ~ctx refs recovered k;
                      close_journal recovered;
                      (* recover-after-recover: the recovered session
                         recovers again to the same seq, and resumed
                         with the rest of the workload it ends where
                         the uninterrupted run did *)
                      if n mod 97 = 0 then begin
                        let again, report = recover_ok ~ctx d in
                        checki (ctx ^ ": second recovery, same seq") k
                          (jint report "seq");
                        for i = k + 1 to requests do
                          ignore (feed again (soak_line i))
                        done;
                        check_refpoint ~ctx:(ctx ^ ", resumed") refs again
                          requests;
                        close_journal again
                      end
                done;
                (* the matrix must have exercised the in-flight case *)
                checkb "some kill points caught a request mid-flight" true
                  (!discards > 0))));
  ]

(* ------------------------------------------------------------------ *)
(* Durable parallel serving (--workers 4) *)

(* Same knobs as the sequential soak, widened to a 4-slot pool driven
   by 4 worker domains.  config_digest excludes [workers], so journals
   written here also recover under any worker count (and vice versa). *)
let par_config = { soak_config with Server.pool_size = 4; workers = 4 }

(* Run [lines] through the real channel loop — the one dispatcher loop
   every --workers N uses — via temp files.  Returns
   the exit code and the response lines in order (drain line last). *)
let run_session server lines =
  let root = fresh_dir "chan" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let in_path = Filename.concat root "in.jsonl" in
      let out_path = Filename.concat root "out.jsonl" in
      let oc = open_out in_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      output_string oc "{\"op\":\"shutdown\"}\n";
      close_out oc;
      let ic = open_in in_path in
      let oc = open_out out_path in
      let code =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () -> Server.run_channels server ic oc)
      in
      ( code,
        String.split_on_char '\n' (read_bytes out_path)
        |> List.filter (fun l -> l <> "") ))

let drop_fields ks (j : Json.t) =
  match j with
  | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k ks)) kvs)
  | j -> j

(* Unique tenant per request: admission decisions cannot depend on
   worker scheduling, so a --workers 4 run must be response-identical
   to the sequential loop — except for which engine slot served it. *)
let uniq_line i =
  let tenant = Printf.sprintf "u%02d" i in
  match i mod 4 with
  | 0 -> run_line ~src:divzero_src ~tenant ~retries:0 ()
  | 1 -> run_line ~src:alloc_src ~tenant ()
  | 2 -> run_line ~src:oob_src ~tenant ()
  | _ -> run_line ~src:good_src ~tenant ()

let par_tests =
  [
    quick "a --workers 4 durable session matches the sequential loop"
      (fun () ->
        with_dir "par-basic" (fun dir ->
            let n = 60 in
            let lines = List.init n (fun i -> uniq_line (i + 1)) in
            let seq_server =
              Server.create ~config:{ par_config with Server.workers = 1 } ()
            in
            let want = List.map (feed seq_server) lines in
            let server =
              durable_server ~config:par_config ~dir ~interval:16 ()
            in
            let code, out = run_session server lines in
            checki "parallel drain is clean" 0 code;
            checki "every request answered, in order" (n + 1)
              (List.length out);
            List.iteri
              (fun i (want, got_line) ->
                let got =
                  match Json.of_string got_line with
                  | Ok j -> j
                  | Error m ->
                      Alcotest.failf "response %d unparsable: %s" (i + 1) m
                in
                (* engine: slot placement is the scheduler's choice;
                   message: sanitizer diagnostics embed absolute heap
                   addresses, which depend on the slot's history *)
                checks
                  (Printf.sprintf "response %d matches the sequential run"
                     (i + 1))
                  (Json.to_string (drop_fields [ "engine"; "message" ] want))
                  (Json.to_string (drop_fields [ "engine"; "message" ] got)))
              (List.combine want (List.filteri (fun i _ -> i < n) out));
            (* the journal the parallel run wrote recovers to exactly
               the live parallel server's state *)
            let live = refpoint_of server (slot_fps server) in
            let recovered, report =
              recover_ok ~ctx:"par-basic" ~config:par_config ~interval:16 dir
            in
            checki "all requests committed" n (jint report "seq");
            checki "nothing discarded on a clean drain" 0
              (jint report "discarded");
            checkb "not torn" true (jget report "torn" = Json.Null);
            checkb "recovered state equals the live parallel server" true
              (refpoint_of recovered (slot_fps recovered) = live);
            close_journal recovered));
    quick "durable parallel sessions require tenant-inflight 1" (fun () ->
        let racy =
          {
            par_config with
            Server.default_budget =
              { Tenant.default_budget with Tenant.max_inflight = 4 };
          }
        in
        with_dir "guard" (fun dir ->
            let server = Server.create ~config:racy () in
            (match Server.enable_durability server ~dir () with
            | Ok () -> Alcotest.fail "racy config accepted"
            | Error d ->
                checks "enable code" "durable.tenant-inflight" d.Diag.code);
            match Server.recover ~config:racy ~dir () with
            | Ok _ -> Alcotest.fail "racy recover accepted"
            | Error d ->
                checks "recover code" "durable.tenant-inflight" d.Diag.code));
    quick "recovering a journal-less directory names what is missing"
      (fun () ->
        with_dir "empty" (fun dir ->
            match Server.recover ~config:par_config ~dir () with
            | Ok _ -> Alcotest.fail "recovered from an empty dir"
            | Error d ->
                checks "code" "recover.no-journal" d.Diag.code;
                let contains needle msg =
                  let ln = String.length needle and lm = String.length msg in
                  let rec scan i =
                    i + ln <= lm
                    && (String.sub msg i ln = needle || scan (i + 1))
                  in
                  scan 0
                in
                checkb "message explains what is missing" true
                  (contains "holds no journal" d.Diag.message)));
  ]

(* The parallel kill-point matrix.  Scheduling decides which slot
   serves which request, so unlike the sequential matrix there is no
   precomputed per-commit reference — instead every assertion is
   anchored to the run itself: the committed seq at each event, the
   live quiesced state captured at every checkpoint barrier, and
   byte-identical double recoveries (replay is deterministic given the
   journal, whatever schedule produced it). *)
let par_matrix_tests =
  [
    quick "recovery is exact at every kill point of a --workers 4 soak"
      (fun () ->
        with_dir "par-matrix" (fun dir ->
            let snap_root = fresh_dir "par-matrix-snaps" in
            Fun.protect
              ~finally:(fun () -> rm_rf snap_root)
              (fun () ->
                let requests = 200 in
                let committed_at = Hashtbl.create 1024 in
                let live_at_barrier = Hashtbl.create 32 in
                let journal = ref None in
                let server_ref = ref None in
                let on_event n =
                  let d =
                    Filename.concat snap_root (Printf.sprintf "evt-%04d" n)
                  in
                  copy_dir dir d;
                  let committed =
                    match !journal with
                    | Some (j : Durable.t) -> j.Durable.committed
                    | None -> 0
                  in
                  Hashtbl.replace committed_at n committed;
                  (* a checkpoint's temp file exists only between its
                     write and its rename — i.e. exactly at the
                     temp-write event, which the dispatcher raises after
                     quiescing every worker, so the live state is the
                     committed prefix and safe to read from this
                     (dispatcher) domain *)
                  let tmp =
                    Filename.concat dir
                      (Printf.sprintf "ckpt-%010d.tmp" committed)
                  in
                  match !server_ref with
                  | Some sv when Sys.file_exists tmp ->
                      Hashtbl.replace live_at_barrier committed
                        (refpoint_of sv (slot_fps sv))
                  | _ -> ()
                in
                let server = Server.create ~config:par_config () in
                server_ref := Some server;
                (match
                   Server.enable_durability server ~dir ~interval:16
                     ~on_event ()
                 with
                | Ok () -> ()
                | Error d ->
                    Alcotest.failf "enable_durability failed: %s" d.Diag.code);
                journal := server.Server.journal;
                let lines =
                  List.init requests (fun i -> soak_line (i + 1))
                in
                let code, out = run_session server lines in
                checki "the parallel soak drains clean" 0 code;
                let tenants_but_mem (sv : Server.t) =
                  List.map
                    (fun t ->
                      { (Tenant.snapshot t) with Tenant.ts_mem_used = 0 })
                    (Tenant.all sv.Server.tenants)
                in
                let final_tenants = tenants_but_mem server in
                checki "every soak request answered" (requests + 1)
                  (List.length out);
                let events =
                  (Option.get server.Server.journal).Durable.events
                in
                checkb "the soak produced a real event stream" true
                  (events > 2 * requests);
                let discards = ref 0 and max_discard = ref 0 in
                for n = 1 to events do
                  let ctx = Printf.sprintf "event %d" n in
                  let d =
                    Filename.concat snap_root (Printf.sprintf "evt-%04d" n)
                  in
                  match Server.recover ~config:par_config ~dir:d () with
                  | Error e when e.Diag.code = "recover.no-checkpoint" ->
                      checki (ctx ^ ": unrecoverable only at commit 0") 0
                        (Hashtbl.find committed_at n);
                      checkb (ctx ^ ": and only without a checkpoint") false
                        (Array.exists
                           (fun f ->
                             String.length f >= 5
                             && String.sub f 0 5 = "ckpt-"
                             && not (Filename.check_suffix f ".tmp"))
                           (Sys.readdir d))
                  | Error e ->
                      Alcotest.failf "%s: recovery failed: %s" ctx e.Diag.code
                  | Ok (recovered, report) ->
                      let k = jint report "seq" in
                      (* zero committed requests lost, zero uncommitted
                         replayed *)
                      checki (ctx ^ ": recovers the committed seq")
                        (Hashtbl.find committed_at n)
                        k;
                      checki (ctx ^ ": served ties out") k
                        recovered.Server.served;
                      (* commits land in response order, so one slow
                         request keeps every later dispatch's begin
                         open — but the dispatcher quiesces every
                         [interval] mutating dispatches, which bounds
                         the open set *)
                      let discarded = jint report "discarded" in
                      checkb
                        (ctx ^ ": discards bounded by the barrier interval")
                        true
                        (discarded >= 0 && discarded <= 16);
                      discards := !discards + discarded;
                      if discarded > !max_discard then
                        max_discard := discarded;
                      checkb (ctx ^ ": consistent snapshots are never torn")
                        true
                        (jget report "torn" = Json.Null);
                      (* at (and around) checkpoint barriers the live
                         quiesced state was captured: recovery must
                         reproduce tenants and per-slot fingerprints
                         byte-identically *)
                      (match Hashtbl.find_opt live_at_barrier k with
                      | Some rp ->
                          checki (ctx ^ ": served at the barrier")
                            rp.rp_served recovered.Server.served;
                          checkb
                            (ctx
                           ^ ": tenants byte-identical to the live run")
                            true
                            (List.map Tenant.snapshot
                               (Tenant.all recovered.Server.tenants)
                            = rp.rp_tenants);
                          Array.iteri
                            (fun id fp ->
                              checks
                                (Printf.sprintf "%s: slot %d fingerprint"
                                   ctx id)
                                fp (slot_fp recovered id))
                            rp.rp_fps
                      | None -> ());
                      (* replay determinism: recovering the same
                         snapshot twice lands byte-identically *)
                      if n mod 29 = 0 then begin
                        let again, report2 =
                          recover_ok ~ctx ~config:par_config d
                        in
                        checki (ctx ^ ": double recovery, same seq") k
                          (jint report2 "seq");
                        checkb (ctx ^ ": double recovery is deterministic")
                          true
                          (refpoint_of again (slot_fps again)
                          = refpoint_of recovered (slot_fps recovered));
                        close_journal again
                      end;
                      close_journal recovered;
                      (* recover-after-recover, then the rest of the
                         workload through 4 workers again: served count
                         and tenant table end where the uninterrupted
                         run's did.  Committed heap growth is left out:
                         a leak's growth depends on the history of the
                         slot the scheduler picked. *)
                      if n mod 97 = 0 then begin
                        let again, report =
                          recover_ok ~ctx ~config:par_config d
                        in
                        checki (ctx ^ ": second recovery, same seq") k
                          (jint report "seq");
                        let code, _ =
                          run_session again
                            (List.filteri (fun i _ -> i >= k) lines)
                        in
                        checki (ctx ^ ": resumed run drains clean") 0 code;
                        checki (ctx ^ ": resumed served") requests
                          again.Server.served;
                        checkb (ctx ^ ": resumed tenants equal the live run")
                          true
                          (tenants_but_mem again = final_tenants);
                        close_journal again
                      end
                done;
                (* the final pristine journal recovers to the drained
                   live server exactly *)
                let live = refpoint_of server (slot_fps server) in
                let final, freport =
                  recover_ok ~ctx:"final" ~config:par_config dir
                in
                checki "final: all commits recovered" requests
                  (jint freport "seq");
                checkb "final: state equals the live drained server" true
                  (refpoint_of final (slot_fps final) = live);
                close_journal final;
                checkb "some kill points caught requests mid-flight" true
                  (!discards > 0);
                checkb "some kill points caught interleaved open begins"
                  true (!max_discard >= 2))));
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial corruption sweep over a multi-generation parallel
   journal: interleaved begin/end records from a --workers 4 run,
   damaged one byte or one truncation at a time.  Every mutation must
   yield a structured recover.* refusal or a clean degradation to a
   committed prefix — never a crash, a hang, or silent acceptance. *)

let sweep_tests =
  [
    quick "every corrupted journal recovers structured or refuses cleanly"
      (fun () ->
        with_dir "sweep" (fun dir ->
            let n = 45 in
            let lines =
              List.init n (fun i ->
                  let tenant = Printf.sprintf "c%02d" (i + 1) in
                  if (i + 1) mod 3 = 0 then
                    run_line ~src:divzero_src ~tenant ~retries:0 ()
                  else run_line ~src:good_src ~tenant ())
            in
            let server =
              durable_server ~config:par_config ~dir ~interval:8 ()
            in
            let code, _ = run_session server lines in
            checki "the sweep soak drains clean" 0 code;
            let pristine = dir ^ ".pristine" in
            copy_dir dir pristine;
            Fun.protect
              ~finally:(fun () -> rm_rf pristine)
              (fun () ->
                (* deterministic generation layout: checkpoints landed
                   at 8..40; the rotation at 40 keeps generation 32 as
                   the degradation target *)
                List.iter
                  (fun f ->
                    checkb (f ^ " survives rotation") true
                      (Sys.file_exists (Filename.concat pristine f)))
                  [
                    "ckpt-0000000040";
                    "ckpt-0000000032";
                    "wal-0000000040.log";
                    "wal-0000000032.log";
                  ];
                let recover_outcome name f =
                  let d = dir ^ "." ^ name in
                  copy_dir pristine d;
                  Fun.protect
                    ~finally:(fun () -> rm_rf d)
                    (fun () ->
                      f d;
                      match Server.recover ~config:par_config ~dir:d () with
                      | Ok (s, report) ->
                          let seq = jint report "seq" in
                          let torn = jget report "torn" <> Json.Null in
                          close_journal s;
                          `Recovered (seq, torn, report)
                      | Error e ->
                          checkb
                            (name
                           ^ ": refusal is a structured recover.* diag")
                            true
                            (String.length e.Diag.code >= 8
                            && String.sub e.Diag.code 0 8 = "recover.");
                          `Refused e.Diag.code
                      | exception e ->
                          Alcotest.failf "%s: recovery raised %s" name
                            (Printexc.to_string e))
                in
                let newest_wal = "wal-0000000040.log" in
                let prev_wal = "wal-0000000032.log" in
                let wal_len =
                  String.length
                    (read_bytes (Filename.concat pristine newest_wal))
                in
                (* bit flips across the newest generation: each must
                   surface as a torn tail or a shorter committed
                   prefix, never be silently accepted *)
                let off = ref 1 in
                while !off < wal_len do
                  let o = !off in
                  (match
                     recover_outcome
                       (Printf.sprintf "flip-%d" o)
                       (fun d ->
                         let p = Filename.concat d newest_wal in
                         write_bytes p (flip_byte (read_bytes p) o))
                   with
                  | `Recovered (seq, torn, _) ->
                      checkb
                        (Printf.sprintf "flip at %d is not silently accepted"
                           o)
                        true
                        (torn || seq < n)
                  | `Refused _ -> ());
                  off := !off + 97
                done;
                (* flips in the previous generation are invisible to a
                   recovery that loads the newest checkpoint *)
                (match
                   recover_outcome "flip-prev-gen" (fun d ->
                       let p = Filename.concat d prev_wal in
                       write_bytes p (flip_byte (read_bytes p) 40))
                 with
                | `Recovered (seq, torn, _) ->
                    checki "prev-gen flip: full recovery" n seq;
                    checkb "prev-gen flip: not torn" false torn
                | `Refused code ->
                    Alcotest.failf "prev-gen flip refused: %s" code);
                (* truncation sweep: any cut of the newest WAL lands on
                   a committed prefix at or past the barrier *)
                List.iter
                  (fun frac ->
                    let len = wal_len * frac / 100 in
                    match
                      recover_outcome
                        (Printf.sprintf "trunc-%d" frac)
                        (fun d ->
                          let p = Filename.concat d newest_wal in
                          write_bytes p (String.sub (read_bytes p) 0 len))
                    with
                    | `Recovered (seq, _, _) ->
                        checkb
                          (Printf.sprintf
                             "trunc %d%%: lands on a committed prefix" frac)
                          true
                          (seq >= 40 && seq <= n)
                    | `Refused code ->
                        Alcotest.failf
                          "trunc %d%%: refused (%s) despite an intact \
                           checkpoint"
                          frac code)
                  [ 3; 17; 42; 71; 89; 99 ];
                (* a flipped newest checkpoint degrades exactly one
                   barrier and still replays everything *)
                (match
                   recover_outcome "bad-ckpt" (fun d ->
                       let p = Filename.concat d "ckpt-0000000040" in
                       let b = read_bytes p in
                       write_bytes p (flip_byte b (String.length b / 2)))
                 with
                | `Recovered (seq, torn, report) ->
                    checki "bad ckpt: fell back one barrier" 32
                      (jint report "barrier");
                    checki "bad ckpt: still recovers everything" n seq;
                    checkb "bad ckpt: not torn" false torn;
                    checkb "bad ckpt: skip names the file" true
                      (match jget report "skipped_checkpoints" with
                      | Json.List (Json.Obj kvs :: _) ->
                          List.assoc_opt "file" kvs
                          = Some (Json.Str "ckpt-0000000040")
                      | _ -> false)
                | `Refused code ->
                    Alcotest.failf "bad ckpt refused: %s" code);
                (* newest checkpoint flipped AND the fallback
                   generation truncated: still structured — either a
                   recover.* refusal or a bounded committed prefix *)
                (match
                   recover_outcome "bad-ckpt-torn-prev" (fun d ->
                       let p = Filename.concat d "ckpt-0000000040" in
                       let b = read_bytes p in
                       write_bytes p (flip_byte b (String.length b - 7));
                       let w = Filename.concat d prev_wal in
                       let wb = read_bytes w in
                       write_bytes w
                         (String.sub wb 0
                            (String.length wb - (String.length wb / 3))))
                 with
                | `Recovered (seq, _, report) ->
                    checki "combo: fell back one barrier" 32
                      (jint report "barrier");
                    checkb "combo: a committed prefix at most" true
                      (seq <= n)
                | `Refused _ -> ());
                (* both checkpoint generations flipped: a structured
                   refusal, not a crash *)
                match
                  recover_outcome "no-ckpt" (fun d ->
                      List.iter
                        (fun f ->
                          let p = Filename.concat d f in
                          let b = read_bytes p in
                          write_bytes p (flip_byte b 11))
                        [ "ckpt-0000000040"; "ckpt-0000000032" ])
                with
                | `Recovered _ ->
                    Alcotest.fail "recovered from two bad checkpoints"
                | `Refused code ->
                    checks "no-ckpt code" "recover.no-checkpoint" code)))
  ]

let () =
  Alcotest.run "durable"
    [
      ( "engine-checkpoints",
        quick "checkpoint bytes match the golden file" checkpoint_golden
        :: engine_tests );
      ("journal-plumbing", plumbing_tests);
      ("torn-tails", torn_tests);
      ("kill-point-matrix", matrix_tests);
      ("durable-parallel", par_tests);
      ("parallel-kill-points", par_matrix_tests);
      ("corruption-sweep", sweep_tests);
    ]
