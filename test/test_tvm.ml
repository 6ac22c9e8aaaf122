(* Tests for the VM substrate: memory, allocator, IR semantics. *)

open Tvm
module Ir = Tvm.Ir

let checki = Alcotest.(check int)
let checki64 = Alcotest.(check int64)
let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let new_vm () =
  let vm = Vm.create (Tmachine.Machine.create Tmachine.Config.test_tiny) in
  Builtins.install vm;
  vm

(* ------------------------------------------------------------------ *)
(* Memory *)

(* An arena whose whole static region is allocated, so the low addresses
   these tests use as scratch are addressable: statics past the bump
   pointer fault. *)
let scratch_mem ?bytes () =
  let m = Mem.create ?bytes () in
  ignore (Mem.alloc_static m ~align:1 (Mem.heap_base m - Mem.statics_base));
  m

let test_mem_roundtrip () =
  let m = scratch_mem () in
  Mem.set_i64 m 8192 0x1122334455667788L;
  checki64 "i64" 0x1122334455667788L (Mem.get_i64 m 8192);
  Mem.set_f64 m 8200 3.14159;
  checkf "f64" 3.14159 (Mem.get_f64 m 8200);
  Mem.set_f32 m 8208 1.5;
  checkf "f32" 1.5 (Mem.get_f32 m 8208);
  Mem.set_u8 m 8212 200;
  checki "u8" 200 (Mem.get_u8 m 8212);
  checki "i8 sign extends" (-56) (Mem.get_i8 m 8212);
  Mem.set_u16 m 8214 0xBEEF;
  checki "u16" 0xBEEF (Mem.get_u16 m 8214);
  checki "i16 sign extends" (-16657) (Mem.get_i16 m 8214)

let test_mem_little_endian () =
  let m = scratch_mem () in
  Mem.set_i32 m 8192 0x04030201l;
  checki "LE byte 0" 1 (Mem.get_u8 m 8192);
  checki "LE byte 3" 4 (Mem.get_u8 m 8195)

let test_mem_null_faults () =
  let m = Mem.create () in
  Alcotest.check_raises "null deref"
    (Mem.Fault (0, "load u8"))
    (fun () -> ignore (Mem.get_u8 m 0))

let test_mem_oob_faults () =
  let m = Mem.create () in
  checkb "oob traps" true
    (match Mem.get_i64 m (Mem.size m + 10) with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_mem_negative_len_faults () =
  let m = scratch_mem () in
  checkb "negative blit length traps" true
    (match Mem.blit m ~src:8192 ~dst:9000 ~len:(-1) with
    | exception Mem.Fault (_, what) ->
        checkb "names the cause" true
          (String.length what > 0
          && String.sub what (String.length what - 1) 1 = ")");
        true
    | _ -> false);
  checkb "negative fill length traps" true
    (match Mem.fill m 8192 (-8) 'x' with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_mem_len_overflow_faults () =
  (* addr + len wrapping past the arena must not pass the bounds check *)
  let m = scratch_mem () in
  checkb "huge length traps" true
    (match Mem.fill m 8192 max_int 'x' with
    | exception Mem.Fault _ -> true
    | _ -> false);
  checkb "addr+len overflow traps" true
    (match Mem.blit m ~src:8192 ~dst:(Mem.size m - 4) ~len:8 with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_cstring_roundtrip () =
  let m = scratch_mem () in
  Mem.set_cstring m 9000 "hello terra";
  Alcotest.(check string) "cstring" "hello terra" (Mem.get_cstring m 9000)

let test_cstring_unterminated_bounded () =
  (* a missing NUL must fault after max_cstring bytes, not scan the
     whole arena *)
  let m = scratch_mem ~bytes:(4 * 1024 * 1024) () in
  Mem.fill m Mem.statics_base (Mem.size m - Mem.statics_base) 'a';
  checkb "scan is bounded" true (Mem.max_cstring <= 1 lsl 20);
  checkb "unterminated string traps" true
    (match Mem.get_cstring m Mem.statics_base with
    | exception Mem.Fault (_, what) ->
        checkb "mentions the missing NUL" true
          (String.length what >= 12 && String.sub what 0 12 = "unterminated");
        true
    | _ -> false)

let test_blit () =
  let m = scratch_mem () in
  Mem.set_i64 m 8192 42L;
  Mem.blit m ~src:8192 ~dst:9000 ~len:8;
  checki64 "copied" 42L (Mem.get_i64 m 9000)

let test_alloc_static_aligned () =
  let m = Mem.create () in
  let a = Mem.alloc_static m ~align:1 3 in
  let b = Mem.alloc_static m ~align:16 8 in
  checki "aligned" 0 (b mod 16);
  checkb "no overlap" true (b >= a + 3)

(* ------------------------------------------------------------------ *)
(* Allocator *)

let test_malloc_basic () =
  let m = Mem.create () in
  let a = Alloc.create m in
  let p1 = Alloc.malloc a 100 in
  let p2 = Alloc.malloc a 100 in
  checkb "distinct" true (p2 >= p1 + 100 || p1 >= p2 + 100);
  checki "aligned" 0 (p1 mod 16);
  Alloc.free a p1;
  Alloc.free a p2;
  checki "all freed" 0 (Alloc.live_blocks a)

let test_free_reuse () =
  let m = Mem.create () in
  let a = Alloc.create m in
  let p1 = Alloc.malloc a (1 lsl 20) in
  Alloc.free a p1;
  let p2 = Alloc.malloc a (1 lsl 20) in
  checkb "space reused" true (p2 <= p1 + 1024)

let test_double_free_rejected () =
  let m = Mem.create () in
  let a = Alloc.create m in
  let p = Alloc.malloc a 64 in
  Alloc.free a p;
  Alcotest.check_raises "double free" (Alloc.Invalid_free p) (fun () ->
      Alloc.free a p)

let test_free_null_ok () =
  let m = Mem.create () in
  let a = Alloc.create m in
  Alloc.free a 0

let test_realloc_copies () =
  let m = Mem.create () in
  let a = Alloc.create m in
  let p = Alloc.malloc a 16 in
  Mem.set_i64 m p 777L;
  let q = Alloc.realloc a p 256 in
  checki64 "contents copied" 777L (Mem.get_i64 m q)

let test_oom () =
  let m = Mem.create () in
  let a = Alloc.create m in
  checkb "OOM raised" true
    (match Alloc.malloc a (1 lsl 62) with
    | exception Alloc.Out_of_memory _ -> true
    | _ -> false)

let prop_no_overlap =
  QCheck.Test.make ~count:50 ~name:"live blocks never overlap"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 4096))
    (fun sizes ->
      let m = Mem.create () in
      let a = Alloc.create m in
      let ptrs = List.map (fun s -> (Alloc.malloc a s, s)) sizes in
      (* free every other block, then allocate again *)
      List.iteri (fun i (p, _) -> if i mod 2 = 0 then Alloc.free a p) ptrs;
      let _more = List.map (fun s -> Alloc.malloc a s) sizes in
      let blocks = List.sort compare (Alloc.blocks a) in
      let rec ok = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && ok rest
        | _ -> true
      in
      ok blocks)

let prop_malloc_free_balance =
  QCheck.Test.make ~count:50 ~name:"free restores live_bytes"
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 10000))
    (fun sizes ->
      let m = Mem.create () in
      let a = Alloc.create m in
      let ptrs = List.map (Alloc.malloc a) sizes in
      List.iter (Alloc.free a) ptrs;
      Alloc.live_bytes a = 0 && Alloc.live_blocks a = 0)

(* ------------------------------------------------------------------ *)
(* Fingerprints: the page-digest cache against a from-scratch recompute *)

(* Statics at or above the bump pointer are unallocated: no capture,
   rollback or default-mark fingerprint covers them, so loads and stores
   there fault instead of landing where nothing sees them. *)
let test_unallocated_statics_fault () =
  List.iter
    (fun checked ->
      let mk () =
        Vm.create ~checked
          (Tmachine.Machine.create Tmachine.Config.test_tiny)
      in
      let vm = mk () in
      let m = vm.Vm.mem in
      let a = Mem.alloc_static m ~align:8 16 in
      Mem.set_i64 m a 7L;
      checki64 "allocated statics stay addressable" 7L (Mem.get_i64 m a);
      let mark = Mem.statics_mark m in
      let top = Mem.heap_base m in
      let faults name f =
        checkb name true
          (match f () with exception Mem.Fault _ -> true | () -> false)
      in
      faults "store at the mark" (fun () -> Mem.set_u8 m mark 1);
      faults "store straddling the mark" (fun () ->
          Mem.set_i64 m (mark - 4) 1L);
      faults "store below the heap" (fun () -> Mem.set_i32 m (top - 4) 1l);
      faults "load past the mark" (fun () ->
          ignore (Mem.get_u8 m (mark + 100)));
      faults "load below the heap" (fun () -> ignore (Mem.get_i64 m (top - 8)));
      faults "fill past the mark" (fun () -> Mem.fill m mark 8 'x');
      (* nothing reached the arena: a restored copy agrees even on a
         fingerprint that covers the whole static region *)
      let vm2 = mk () in
      Session.restore vm2 (Session.capture vm);
      List.iter
        (fun upto ->
          Alcotest.(check string)
            (Printf.sprintf "restored copy, statics up to %#x" upto)
            (Vm.fingerprint ~statics_upto:upto vm)
            (Vm.fingerprint ~statics_upto:upto vm2))
        [ mark; top ];
      Alcotest.(check string)
        "cache = recompute"
        (Vm.fingerprint ~from_scratch:true ~statics_upto:top vm)
        (Vm.fingerprint ~statics_upto:top vm))
    [ false; true ]

(* One step of a random session history.  Addresses are a page plus an
   offset, and the offsets favour the last bytes of a page, so multi-byte
   writes often straddle two pages. *)
type fp_op =
  | Store of int * int * int  (** width selector, address, value *)
  | Lanes of bool * int * int  (** f64 lanes?, address, lane count *)
  | Blit of int * int * int  (** src, dst, len *)
  | Fill of int * int * int  (** address, len, byte *)
  | Cstring of int * string
  | Static of int  (** bump-allocate statics *)
  | Malloc of int
  | Free  (** the newest live block *)
  | Begin
  | Rollback
  | Commit
  | Capture
  | Restore

let fp_arena = 10 * 1024 * 1024 (* the arena floor *)

let pp_fp_op = function
  | Store (w, a, v) -> Printf.sprintf "store%d %#x %d" w a v
  | Lanes (d, a, n) ->
      Printf.sprintf "lanes%s %#x x%d" (if d then "64" else "32") a n
  | Blit (s, d, n) -> Printf.sprintf "blit %#x->%#x %d" s d n
  | Fill (a, n, c) -> Printf.sprintf "fill %#x %d %d" a n c
  | Cstring (a, s) -> Printf.sprintf "cstring %#x %S" a s
  | Static n -> Printf.sprintf "static %d" n
  | Malloc n -> Printf.sprintf "malloc %d" n
  | Free -> "free"
  | Begin -> "begin"
  | Rollback -> "rollback"
  | Commit -> "commit"
  | Capture -> "capture"
  | Restore -> "restore"

(* statics, the first heap group, the next one, and the stack *)
let fp_regions =
  [
    Mem.statics_base; 1 lsl 20; (1 lsl 20) + (64 * 4096); fp_arena - (8 lsl 20);
  ]

let gen_fp_addr =
  let open QCheck.Gen in
  let* region = oneofl fp_regions in
  let* page = int_range 0 5 in
  let* off = oneof [ int_range 4080 4095; int_range 0 4095 ] in
  return (region + (page * 4096) + off)

let gen_fp_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map3 (fun w a v -> Store (w, a, v)) (int_range 0 5) gen_fp_addr nat);
      (2, map3 (fun d a n -> Lanes (d, a, n)) bool gen_fp_addr (int_range 1 8));
      ( 2,
        map3
          (fun s d n -> Blit (s, d, n))
          gen_fp_addr gen_fp_addr (int_range 0 9000) );
      ( 2,
        map3
          (fun a n c -> Fill (a, n, c))
          gen_fp_addr (int_range 0 9000) (int_range 0 255) );
      ( 1,
        map2
          (fun a s -> Cstring (a, s))
          gen_fp_addr
          (string_size ~gen:printable (int_range 0 40)) );
      (1, map (fun n -> Static n) (int_range 1 5000));
      (2, map (fun n -> Malloc n) (int_range 1 9000));
      (1, return Free);
      (2, return Begin);
      (2, return Rollback);
      (1, return Commit);
      (1, return Capture);
      (1, return Restore);
    ]

let fp_ok name a b =
  if a <> b then QCheck.Test.fail_reportf "%s: %s <> %s" name a b

(* A history: single ops, and transactions of a few ops that end in a
   rollback or a commit (a lone op may also begin or end one). *)
let gen_fp_history =
  let open QCheck.Gen in
  let txn =
    let* body = list_size (int_range 1 4) gen_fp_op in
    let* fin = frequency [ (3, return Rollback); (1, return Commit) ] in
    return ((Begin :: body) @ [ fin ])
  in
  map List.concat
    (list_size (int_range 1 5)
       (frequency [ (3, map (fun o -> [ o ]) gen_fp_op); (2, txn) ]))

(* A fresh engine whose target pages each hold a different byte, so a
   blit or a rollback almost always changes what it overwrites.  (The
   heap stays zero in checked mode, where it is not addressable.) *)
let fp_vm checked =
  let vm =
    Vm.create ~mem_bytes:fp_arena ~checked
      (Tmachine.Machine.create Tmachine.Config.test_tiny)
  in
  (* the statics pages it fills must be allocated; [Static] ops bump the
     mark further *)
  ignore (Mem.alloc_static vm.Vm.mem ~align:1 (7 * 4096));
  List.iteri
    (fun i region ->
      for p = 0 to 6 do
        let c = Char.chr (1 + (8 * i) + p) in
        try Mem.fill vm.Vm.mem (region + (p * 4096)) 4096 c
        with Shadow.Violation _ -> ()
      done)
    fp_regions;
  vm

(* Apply one op; an op the memory refuses (bounds, sanitizer, a state
   the op needs) is a no-op.  Checks the rollback and restore contracts
   on the way. *)
let fp_apply vm (txn, blocks, saved) op =
  let m = vm.Vm.mem in
  try
    match op with
    | Store (w, a, v) ->
        (match w with
        | 0 -> Mem.set_u8 m a v
        | 1 -> Mem.set_u16 m a v
        | 2 -> Mem.set_i32 m a (Int32.of_int v)
        | 3 -> Mem.set_i64 m a (Int64.of_int v)
        | 4 -> Mem.set_f32 m a (float_of_int v)
        | _ -> Mem.set_f64 m a (float_of_int v));
        (txn, blocks, saved)
    | Lanes (d, a, n) ->
        let lanes = Array.init n float_of_int in
        if d then Mem.set_f64s m a lanes else Mem.set_f32s m a lanes;
        (txn, blocks, saved)
    | Blit (src, dst, len) ->
        Mem.blit m ~src ~dst ~len;
        (txn, blocks, saved)
    | Fill (a, n, c) ->
        Mem.fill m a n (Char.chr c);
        (txn, blocks, saved)
    | Cstring (a, s) ->
        Mem.set_cstring m a s;
        (txn, blocks, saved)
    | Static n ->
        ignore (Mem.alloc_static m ~align:8 n);
        (txn, blocks, saved)
    | Malloc n -> (txn, Alloc.malloc vm.Vm.alloc n :: blocks, saved)
    | Free -> (
        match blocks with
        | p :: rest ->
            Alloc.free vm.Vm.alloc p;
            (txn, rest, saved)
        | [] -> (txn, blocks, saved))
    | Begin when txn = None ->
        let mark = Mem.statics_mark m in
        let fp = Vm.fingerprint ~statics_upto:mark vm in
        (Some (Vm.begin_txn vm, mark, fp, blocks), blocks, saved)
    | Rollback -> (
        match txn with
        | Some (tx, mark, fp, blocks0) ->
            Vm.rollback vm tx;
            fp_ok "rollback" fp (Vm.fingerprint ~statics_upto:mark vm);
            (None, blocks0, saved)
        | None -> (txn, blocks, saved))
    | Commit -> (
        match txn with
        | Some (tx, _, _, _) ->
            Vm.commit vm tx;
            (None, blocks, saved)
        | None -> (txn, blocks, saved))
    | Capture when txn = None ->
        (txn, blocks, Some (Session.capture vm, Vm.fingerprint vm, blocks))
    | Restore when txn = None -> (
        match saved with
        | Some (snap, fp, blocks0) ->
            Session.restore vm snap;
            fp_ok "restore" fp (Vm.fingerprint vm);
            (txn, blocks0, saved)
        | None -> (txn, blocks, saved))
    | Begin | Capture | Restore -> (txn, blocks, saved)
  with
  | Mem.Fault _ | Shadow.Violation _ | Alloc.Out_of_memory _
  | Alloc.Invalid_free _ ->
      (txn, blocks, saved)

let prop_fingerprint_audit =
  QCheck.Test.make ~count:40
    ~name:"cached fingerprint = full recompute"
    (let print ops = String.concat "; " (List.map pp_fp_op ops) in
     QCheck.(
       triple bool (make ~print gen_fp_history)
         (make ~print Gen.(list_size (int_range 0 4) gen_fp_op))))
    (fun (checked, ops, other) ->
      let vm = fp_vm checked in
      let audit i upto =
        fp_ok (Printf.sprintf "step %d" i)
          (Vm.fingerprint ~from_scratch:true ?statics_upto:upto vm)
          (Vm.fingerprint ?statics_upto:upto vm)
      in
      let st = ref (None, [], None) in
      List.iteri
        (fun i op ->
          st := fp_apply vm !st op;
          (* every other step audits an arbitrary statics mark *)
          audit i
            (if i mod 2 = 0 then None
             else Some ((i * 37_171) mod (1 lsl 20))))
        ops;
      (match !st with
      | Some (tx, _, _, _), _, _ -> Vm.commit vm tx
      | None, _, _ -> ());
      (* the same bytes reached by another history: a second engine with
         writes and digests of its own, then restored from a capture *)
      let vm2 = fp_vm checked in
      let st2 = List.fold_left (fp_apply vm2) (None, [], None) other in
      (match st2 with Some (tx, _, _, _), _, _ -> Vm.rollback vm2 tx | _ -> ());
      ignore (Vm.fingerprint vm2);
      Session.restore vm2 (Session.capture vm);
      fp_ok "restored copy" (Vm.fingerprint vm) (Vm.fingerprint vm2);
      fp_ok "restored copy, from scratch" (Vm.fingerprint vm2)
        (Vm.fingerprint ~from_scratch:true vm2);
      (* a capture keeps statics below the bump pointer only *)
      let upto = Mem.statics_mark vm.Vm.mem - 17 in
      fp_ok "restored copy, statics mark"
        (Vm.fingerprint ~statics_upto:upto vm)
        (Vm.fingerprint ~statics_upto:upto vm2);
      true)

(* ------------------------------------------------------------------ *)
(* Arena cost *)

(* The process's peak resident set in kB, or [None] without /proc. *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' status)

(* Two checked 64 MiB engines hold 256 MiB of arena and shadow map, but
   write only a few pages: their memory must cost about what they
   touch.  It runs first in this executable, before other tests raise
   the peak it measures. *)
let test_engine_costs_what_it_touches () =
  match vm_hwm_kb () with
  | None -> Alcotest.skip ()
  | Some before ->
      let vms =
        List.init 2 (fun _ ->
            let vm =
              Vm.create ~mem_bytes:(64 * 1024 * 1024) ~checked:true
                (Tmachine.Machine.create Tmachine.Config.test_tiny)
            in
            for _ = 1 to 4 do
              let p = Alloc.malloc vm.Vm.alloc 5000 in
              Mem.fill vm.Vm.mem p 5000 'x'
            done;
            Mem.set_i64 vm.Vm.mem (Mem.stack_top vm.Vm.mem - 8) 1L;
            ignore (Vm.fingerprint vm);
            vm)
      in
      let grew = Option.get (vm_hwm_kb ()) - before in
      ignore (Sys.opaque_identity vms);
      if grew >= 32 * 1024 then
        Alcotest.failf "peak RSS grew by %d kB for two engines" grew

(* ------------------------------------------------------------------ *)
(* Mem against a reference model *)

(* The model is a plain [Bytes.t] the size of the arena, a statics
   pointer, and for an open transaction a copy of both.  It answers
   which accesses fault from [Mem.check]'s rules written out again. *)
type model = {
  mb : Bytes.t;
  mutable mptr : int;
  mutable mtx : (Mem.txn * Bytes.t * int) option;
      (** Mem's transaction, the model's pre-image and statics floor *)
  mutable msaved : ((int * string * (int * string) list) * Bytes.t) option;
      (** a capture: Mem's image, and the model's bytes *)
}

let model_faults md addr len =
  let limit = 1 lsl 20 in
  len < 0 || addr < Mem.statics_base
  || addr > Bytes.length md.mb - len
  || (addr < limit && addr + len > md.mptr && md.mptr < limit)

(* The model's [heap_pages]: every non-zero page at or above the heap. *)
let model_pages md =
  let acc = ref [] in
  for p = (Bytes.length md.mb / 4096) - 1 downto (1 lsl 20) / 4096 do
    let rec zero i =
      i = 4096
      || (Bytes.get_int64_ne md.mb ((p * 4096) + i) = 0L && zero (i + 8))
    in
    if not (zero 0) then
      acc := (p * 4096, Bytes.sub_string md.mb (p * 4096) 4096) :: !acc
  done;
  !acc

let mem_fails f = match f () with () -> false | exception Mem.Fault _ -> true

let model_fails md addr len f =
  if model_faults md addr len then true
  else begin
    f ();
    false
  end

let model_store md w a v =
  let b = md.mb in
  match w with
  | 0 -> model_fails md a 1 (fun () -> Bytes.set_uint8 b a (v land 0xff))
  | 1 -> model_fails md a 2 (fun () -> Bytes.set_uint16_le b a (v land 0xffff))
  | 2 -> model_fails md a 4 (fun () -> Bytes.set_int32_le b a (Int32.of_int v))
  | 3 -> model_fails md a 8 (fun () -> Bytes.set_int64_le b a (Int64.of_int v))
  | 4 ->
      model_fails md a 4 (fun () ->
          Bytes.set_int32_le b a (Int32.bits_of_float (float_of_int v)))
  | _ ->
      model_fails md a 8 (fun () ->
          Bytes.set_int64_le b a (Int64.bits_of_float (float_of_int v)))

(* A checkpoint's two halves must equal the model's. *)
let ref_image m md =
  if Mem.statics_image m <> Bytes.sub_string md.mb 0 md.mptr then
    QCheck.Test.fail_report "statics_image differs from the model";
  if Mem.heap_pages m <> model_pages md then
    QCheck.Test.fail_report "heap_pages differs from the model"

(* Apply one op to both; they must agree on whether it faults. *)
let ref_apply m md op =
  let agree what mem_f model_f =
    let a = mem_fails mem_f and b = model_f () in
    if a <> b then
      QCheck.Test.fail_reportf "%s: Mem %s, model %s" what
        (if a then "faults" else "succeeds")
        (if b then "faults" else "succeeds")
  in
  let name = pp_fp_op op in
  match op with
  | Store (w, a, v) ->
      agree name
        (fun () ->
          match w with
          | 0 -> Mem.set_u8 m a v
          | 1 -> Mem.set_u16 m a v
          | 2 -> Mem.set_i32 m a (Int32.of_int v)
          | 3 -> Mem.set_i64 m a (Int64.of_int v)
          | 4 -> Mem.set_f32 m a (float_of_int v)
          | _ -> Mem.set_f64 m a (float_of_int v))
        (fun () -> model_store md w a v)
  | Lanes (d, a, n) ->
      (* lanes are stored one by one, so a fault leaves the ones before *)
      let lanes = Array.init n float_of_int in
      agree name
        (fun () -> if d then Mem.set_f64s m a lanes else Mem.set_f32s m a lanes)
        (fun () ->
          let w = if d then 8 else 4 in
          let rec go i =
            i < n
            && (model_store md (if d then 5 else 4) (a + (w * i)) i
               || go (i + 1))
          in
          go 0)
  | Blit (src, dst, len) ->
      agree name
        (fun () -> Mem.blit m ~src ~dst ~len)
        (fun () ->
          model_faults md src len
          || model_fails md dst len (fun () ->
                 Bytes.blit md.mb src md.mb dst len))
  | Fill (a, n, c) ->
      agree name
        (fun () -> Mem.fill m a n (Char.chr c))
        (fun () ->
          model_fails md a n (fun () -> Bytes.fill md.mb a n (Char.chr c)))
  | Cstring (a, s) ->
      let n = String.length s in
      agree name
        (fun () -> Mem.set_cstring m a s)
        (fun () ->
          model_fails md a (n + 1) (fun () ->
              Bytes.blit_string s 0 md.mb a n;
              Bytes.set md.mb (a + n) '\000'))
  | Static n ->
      agree name
        (fun () -> ignore (Mem.alloc_static m ~align:8 n))
        (fun () ->
          let addr = (md.mptr + 7) / 8 * 8 in
          if addr + n > 1 lsl 20 then true
          else begin
            md.mptr <- addr + n;
            false
          end);
      (* a non-zero newest static byte: a statics image or a rollback
         that loses the tail of the statics must show *)
      Mem.set_u8 m (md.mptr - 1) 0x5a;
      Bytes.set md.mb (md.mptr - 1) '\x5a'
  | Malloc _ | Free -> ()
  | Begin when md.mtx = None ->
      md.mtx <- Some (Mem.begin_txn m, Bytes.copy md.mb, md.mptr)
  | Rollback | Commit -> (
      match md.mtx with
      | Some (tx, pre, floor) ->
          if op = Rollback then begin
            Mem.rollback m tx;
            (* the monotone statics [floor, statics_limit) keep their
               writes *)
            let kept = Bytes.sub md.mb floor ((1 lsl 20) - floor) in
            Bytes.blit pre 0 md.mb 0 (Bytes.length pre);
            Bytes.blit kept 0 md.mb floor (Bytes.length kept)
          end
          else Mem.commit m tx;
          md.mtx <- None
      | None -> ())
  | Capture when md.mtx = None ->
      ref_image m md;
      md.msaved <-
        Some
          ( (Mem.statics_mark m, Mem.statics_image m, Mem.heap_pages m),
            Bytes.copy md.mb )
  | Restore when md.mtx = None -> (
      match md.msaved with
      | Some ((statics_ptr, statics, pages), img) ->
          Mem.load_image m ~statics_ptr ~statics ~pages;
          Bytes.blit img 0 md.mb 0 (Bytes.length img);
          md.mptr <- statics_ptr
      | None -> ())
  | Begin | Capture | Restore -> ()

let load_widths = [| "u8"; "i8"; "u16"; "i16"; "i32"; "i64"; "f32"; "f64" |]

(* A load from Mem and the model, as an int64 of the value's bits, or
   [None] when it faults. *)
let ref_load m md (w, a) =
  let mem =
    try
      Some
        (match w with
        | 0 -> Int64.of_int (Mem.get_u8 m a)
        | 1 -> Int64.of_int (Mem.get_i8 m a)
        | 2 -> Int64.of_int (Mem.get_u16 m a)
        | 3 -> Int64.of_int (Mem.get_i16 m a)
        | 4 -> Int64.of_int32 (Mem.get_i32 m a)
        | 5 -> Mem.get_i64 m a
        | 6 -> Int64.bits_of_float (Mem.get_f32 m a)
        | _ -> Int64.bits_of_float (Mem.get_f64 m a))
    with Mem.Fault _ -> None
  in
  let len = [| 1; 1; 2; 2; 4; 8; 4; 8 |].(w) in
  let b = md.mb in
  let model =
    if model_faults md a len then None
    else
      Some
        (match w with
        | 0 -> Int64.of_int (Bytes.get_uint8 b a)
        | 1 -> Int64.of_int (Bytes.get_int8 b a)
        | 2 -> Int64.of_int (Bytes.get_uint16_le b a)
        | 3 -> Int64.of_int (Bytes.get_int16_le b a)
        | 4 -> Int64.of_int32 (Bytes.get_int32_le b a)
        | 6 ->
            Int64.bits_of_float (Int32.float_of_bits (Bytes.get_int32_le b a))
        | _ -> Bytes.get_int64_le b a)
  in
  if mem <> model then
    let show = function None -> "fault" | Some v -> Printf.sprintf "%#Lx" v in
    QCheck.Test.fail_reportf "load %s %#x: Mem %s, model %s" load_widths.(w) a
      (show mem) (show model)

(* Loads near the ops' targets, and anywhere in the arena (mostly pages
   nothing wrote, which must read zero). *)
let gen_load =
  let open QCheck.Gen in
  pair (int_range 0 7)
    (oneof [ gen_fp_addr; int_range 0 (fp_arena - 1) ])

(* The fingerprint property's ops; more captures and restores; small
   statics, which leave the statics mark inside a page; blits that
   overlap their source, either way; and stores anywhere, which leave
   pages with a few non-zero bytes *)
let gen_ref_step =
  let open QCheck.Gen in
  pair
    (frequency
       [
         (8, gen_fp_op);
         (1, return Capture);
         (1, return Restore);
         (1, map (fun n -> Static n) (int_range 1 300));
         ( 2,
           map3
             (fun s d n -> Blit (s, s + d, n))
             gen_fp_addr (int_range (-64) 64) (int_range 1 9000) );
         ( 2,
           map3
             (fun w a v -> Store (w, a, v))
             (int_range 0 5)
             (int_range 0 (fp_arena - 1))
             (int_range 1 max_int) );
       ])
    (list_size (int_range 0 3) gen_load)

(* Single steps, and transactions of a few steps that end in a rollback
   or a commit, as in [gen_fp_history] *)
let gen_ref_history =
  let open QCheck.Gen in
  let txn =
    let* body = list_size (int_range 1 4) gen_ref_step in
    let* fin = frequency [ (3, return Rollback); (1, return Commit) ] in
    return (((Begin, []) :: body) @ [ (fin, []) ])
  in
  map List.concat
    (list_size (int_range 1 12)
       (frequency [ (3, map (fun s -> [ s ]) gen_ref_step); (2, txn) ]))

(* Every addressable word of the arena, against the model *)
let ref_sweep m md =
  let a = ref Mem.statics_base in
  while !a + 8 <= fp_arena do
    if
      (not (model_faults md !a 8))
      && Mem.get_i64 m !a <> Bytes.get_int64_le md.mb !a
    then QCheck.Test.fail_reportf "word %#x differs from the model" !a;
    a := !a + 8
  done

let prop_mem_reference =
  QCheck.Test.make ~count:60 ~name:"Mem = Bytes reference model"
    (QCheck.make
       ~print:(fun steps ->
         String.concat "; "
           (List.map
              (fun (op, loads) ->
                pp_fp_op op
                ^ String.concat ""
                    (List.map
                       (fun (w, a) ->
                         Printf.sprintf " [%s %#x]" load_widths.(w) a)
                       loads))
              steps))
       gen_ref_history)
    (fun steps ->
      let m = Mem.create ~bytes:fp_arena () in
      let md =
        { mb = Bytes.make fp_arena '\000'; mptr = Mem.statics_base;
          mtx = None; msaved = None }
      in
      (* the fingerprint property's set-up: allocated statics pages and a
         distinct byte per target page *)
      ref_apply m md (Static (7 * 4096));
      List.iteri
        (fun i region ->
          for p = 0 to 6 do
            ref_apply m md (Fill (region + (p * 4096), 4096, 1 + (8 * i) + p))
          done)
        fp_regions;
      List.iter
        (fun (op, loads) ->
          ref_apply m md op;
          (* every width read back where the op wrote *)
          let written =
            match op with
            | Store (_, a, _) | Lanes (_, a, _) | Fill (a, _, _)
            | Cstring (a, _) | Blit (_, a, _) ->
                List.init 8 (fun w -> (w, a))
            | _ -> []
          in
          List.iter (ref_load m md) (written @ loads))
        steps;
      ref_image m md;
      ref_sweep m md;
      true)

(* ------------------------------------------------------------------ *)
(* VM execution *)

let compile_and_run ?(args = [||]) code ~nparams ~nregs =
  let vm = new_vm () in
  let id =
    Vm.add_func vm { Ir.fname = "t"; nparams; nregs; frame_bytes = 64; code }
  in
  Vm.call vm id args

let test_ret_const () =
  match compile_and_run [| Ir.Ret (Some (Ir.Ki 42L)) |] ~nparams:0 ~nregs:0 with
  | Vm.VI v -> checki64 "const" 42L v
  | _ -> Alcotest.fail "expected int"

let test_int_arith () =
  let cases =
    [
      (Ir.Add, 7L, 3L, 10L); (Ir.Sub, 7L, 3L, 4L); (Ir.Mul, 7L, 3L, 21L);
      (Ir.Divs, 7L, 3L, 2L); (Ir.Divs, -7L, 3L, -2L); (Ir.Rems, 7L, 3L, 1L);
      (Ir.Band, 6L, 3L, 2L); (Ir.Bor, 6L, 3L, 7L); (Ir.Bxor, 6L, 3L, 5L);
      (Ir.Shl, 3L, 4L, 48L); (Ir.Shrs, -16L, 2L, -4L);
      (Ir.Lts, 3L, 7L, 1L); (Ir.Gts, 3L, 7L, 0L);
      (Ir.Mins, 3L, 7L, 3L); (Ir.Maxs, 3L, 7L, 7L);
      (Ir.Ltu, -1L, 1L, 0L) (* unsigned: 2^64-1 > 1 *);
    ]
  in
  List.iter
    (fun (op, a, b, expect) ->
      match
        compile_and_run ~nparams:0 ~nregs:1
          [| Ir.Ibin (op, 0, Ir.Ki a, Ir.Ki b); Ir.Ret (Some (Ir.R 0)) |]
      with
      | Vm.VI v ->
          checki64 (Printf.sprintf "%s %Ld %Ld" (Ir.ibin_name op) a b) expect v
      | _ -> Alcotest.fail "int expected")
    cases

let test_div_by_zero_traps () =
  checkb "traps" true
    (match
       compile_and_run ~nparams:0 ~nregs:1
         [| Ir.Ibin (Ir.Divs, 0, Ir.Ki 1L, Ir.Ki 0L); Ir.Ret (Some (Ir.R 0)) |]
     with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_float_arith () =
  match
    compile_and_run ~nparams:0 ~nregs:2
      [|
        Ir.Fbin (Ir.Fk64, Ir.FMul, 0, Ir.Kf 2.5, Ir.Kf 4.0);
        Ir.Fbin (Ir.Fk64, Ir.FAdd, 1, Ir.R 0, Ir.Kf 1.0);
        Ir.Ret (Some (Ir.R 1));
      |]
  with
  | Vm.VF v -> checkf "2.5*4+1" 11.0 v
  | _ -> Alcotest.fail "float expected"

let test_f32_rounding () =
  (* f32 arithmetic rounds to single precision *)
  match
    compile_and_run ~nparams:0 ~nregs:1
      [|
        Ir.Fbin (Ir.Fk32, Ir.FAdd, 0, Ir.Kf 0.1, Ir.Kf 0.2);
        Ir.Ret (Some (Ir.R 0));
      |]
  with
  | Vm.VF v ->
      checkf "f32 rounded" (Int32.float_of_bits (Int32.bits_of_float 0.3)) v
  | _ -> Alcotest.fail "float expected"

let test_branch_loop () =
  (* sum 1..10 *)
  let code =
    [|
      Ir.Mov (0, Ir.Ki 0L) (* acc *);
      Ir.Mov (1, Ir.Ki 1L) (* i *);
      (* 2: *) Ir.Ibin (Ir.Les, 2, Ir.R 1, Ir.Ki 10L);
      Ir.Br (Ir.R 2, 4, 7);
      (* 4: *) Ir.Ibin (Ir.Add, 0, Ir.R 0, Ir.R 1);
      Ir.Ibin (Ir.Add, 1, Ir.R 1, Ir.Ki 1L);
      Ir.Jmp 2;
      (* 7: *) Ir.Ret (Some (Ir.R 0));
    |]
  in
  match compile_and_run code ~nparams:0 ~nregs:3 with
  | Vm.VI v -> checki64 "sum" 55L v
  | _ -> Alcotest.fail "int"

let test_load_store () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Store (Ir.F64, Ir.Ki (Int64.of_int addr), Ir.Kf 6.25);
      Ir.Load (Ir.F64, 0, Ir.Ki (Int64.of_int addr));
      Ir.Ret (Some (Ir.R 0));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "ls"; nparams = 0; nregs = 1; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "roundtrip" 6.25 v
  | _ -> Alcotest.fail "float"

let test_narrow_store_truncates () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Store (Ir.U8, Ir.Ki (Int64.of_int addr), Ir.Ki 0x1FFL);
      Ir.Load (Ir.U8, 0, Ir.Ki (Int64.of_int addr));
      Ir.Ret (Some (Ir.R 0));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "n"; nparams = 0; nregs = 1; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "truncated" 0xFFL v
  | _ -> Alcotest.fail "int"

let test_vector_ops () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Vsplat (Ir.Fk64, 4, 0, Ir.Kf 3.0);
      Ir.Vsplat (Ir.Fk64, 4, 1, Ir.Kf 2.0);
      Ir.Vbin (Ir.Fk64, 4, Ir.FMul, 2, Ir.R 0, Ir.R 1);
      Ir.Vstore (Ir.Fk64, 4, Ir.Ki (Int64.of_int addr), Ir.R 2);
      Ir.Vload (Ir.Fk64, 4, 3, Ir.Ki (Int64.of_int addr));
      Ir.Vextract (4, Ir.R 3, 2);
      Ir.Ret (Some (Ir.R 4));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "v"; nparams = 0; nregs = 5; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "splat mul" 6.0 v
  | _ -> Alcotest.fail "float"

(* ------------------------------------------------------------------ *)
(* Register file: each frame keeps raw scalar slots, a kind tag per
   register, and one in-place lane buffer per vector register.  These
   tests pin the copy semantics that make in-place updates safe. *)

let add_fn vm ?(name = "f") ?(nparams = 0) nregs code =
  Vm.add_func vm { Ir.fname = name; nparams; nregs; frame_bytes = 0; code }

let lanes_of = function
  | Vm.VV a -> Array.to_list a
  | _ -> Alcotest.fail "expected a vector result"

let check_lanes msg expected v =
  Alcotest.(check (list (float 0.0))) msg expected (lanes_of v)

(* Four f64 lanes 1,2,3,4 in VM memory. *)
let seq_vector vm =
  let addr = Alloc.malloc vm.Vm.alloc 32 in
  List.iteri (fun i x -> Mem.set_f64 vm.Vm.mem (addr + (8 * i)) x) [ 1.; 2.; 3.; 4. ];
  Ir.Ki (Int64.of_int addr)

let read_lanes vm addr =
  List.init 4 (fun i -> Mem.get_f64 vm.Vm.mem (addr + (8 * i)))

let test_vbin_dest_aliases_source () =
  let vm = new_vm () in
  let src = seq_vector vm in
  let run code = Vm.call vm (add_fn vm 3 code) [||] in
  check_lanes "d = a" [ 11.; 12.; 13.; 14. ]
    (run
       [|
         Ir.Vload (Ir.Fk64, 4, 0, src);
         Ir.Vsplat (Ir.Fk64, 4, 1, Ir.Kf 10.0);
         Ir.Vbin (Ir.Fk64, 4, Ir.FAdd, 0, Ir.R 0, Ir.R 1);
         Ir.Ret (Some (Ir.R 0));
       |]);
  check_lanes "d = b" [ 9.; 8.; 7.; 6. ]
    (run
       [|
         Ir.Vload (Ir.Fk64, 4, 0, src);
         Ir.Vsplat (Ir.Fk64, 4, 1, Ir.Kf 10.0);
         Ir.Vbin (Ir.Fk64, 4, Ir.FSub, 0, Ir.R 1, Ir.R 0);
         Ir.Ret (Some (Ir.R 0));
       |]);
  check_lanes "d = a = b" [ 1.; 4.; 9.; 16. ]
    (run
       [|
         Ir.Vload (Ir.Fk64, 4, 0, src);
         Ir.Vbin (Ir.Fk64, 4, Ir.FMul, 0, Ir.R 0, Ir.R 0);
         Ir.Ret (Some (Ir.R 0));
       |]);
  check_lanes "vun in place" [ -1.; -2.; -3.; -4. ]
    (run
       [|
         Ir.Vload (Ir.Fk64, 4, 0, src);
         Ir.Vun (Ir.Fk64, 4, Ir.FNeg, 0, Ir.R 0);
         Ir.Ret (Some (Ir.R 0));
       |])

let test_mov_vector_copies () =
  let vm = new_vm () in
  let src = seq_vector vm in
  let id =
    add_fn vm 3
      [|
        Ir.Vload (Ir.Fk64, 4, 0, src);
        Ir.Mov (1, Ir.R 0);
        (* overwrite the source in place, then with a new width, then
           with a scalar: the copy must see none of it *)
        Ir.Vbin (Ir.Fk64, 4, Ir.FMul, 0, Ir.R 0, Ir.R 0);
        Ir.Vsplat (Ir.Fk64, 2, 0, Ir.Kf 7.0);
        Ir.Mov (0, Ir.Kf 9.0);
        Ir.Ret (Some (Ir.R 1));
      |]
  in
  check_lanes "copy unchanged" [ 1.; 2.; 3.; 4. ] (Vm.call vm id [||]);
  (* and the other way round: writing the copy leaves the source *)
  let id =
    add_fn vm 3
      [|
        Ir.Vload (Ir.Fk64, 4, 0, src);
        Ir.Mov (1, Ir.R 0);
        Ir.Vsplat (Ir.Fk64, 4, 2, Ir.Kf 0.5);
        Ir.Vbin (Ir.Fk64, 4, Ir.FMul, 1, Ir.R 1, Ir.R 2);
        Ir.Ret (Some (Ir.R 0));
      |]
  in
  check_lanes "source unchanged" [ 1.; 2.; 3.; 4. ] (Vm.call vm id [||])

(* [double(v)] doubles its vector parameter in place and returns it. *)
let add_double vm =
  add_fn vm ~name:"double" ~nparams:1 1
    [| Ir.Vbin (Ir.Fk64, 4, Ir.FAdd, 0, Ir.R 0, Ir.R 0); Ir.Ret (Some (Ir.R 0)) |]

let test_vector_call_boundary () =
  let vm = new_vm () in
  let src = seq_vector vm in
  let double = add_double vm in
  let out = Alloc.malloc vm.Vm.alloc 64 in
  let caller call =
    add_fn vm 2
      [|
        Ir.Vload (Ir.Fk64, 4, 0, src);
        call;
        Ir.Vstore (Ir.Fk64, 4, Ir.Ki (Int64.of_int out), Ir.R 0);
        Ir.Vstore (Ir.Fk64, 4, Ir.Ki (Int64.of_int (out + 32)), Ir.R 1);
        Ir.Ret None;
      |]
  in
  List.iter
    (fun (name, call) ->
      ignore (Vm.call vm (caller call) [||]);
      Alcotest.(check (list (float 0.0)))
        (name ^ ": argument register unchanged") [ 1.; 2.; 3.; 4. ]
        (read_lanes vm out);
      Alcotest.(check (list (float 0.0)))
        (name ^ ": result") [ 2.; 4.; 6.; 8. ] (read_lanes vm (out + 32)))
    [
      ("call", Ir.Call (Some 1, double, [ Ir.R 0 ]));
      ( "callind",
        Ir.Callind (Some 1, Ir.Ki (Int64.of_int (Ir.func_addr double)), [ Ir.R 0 ])
      );
    ];
  (* a builtin that scribbles on its argument and returns it *)
  Vm.register_builtin vm "scribble" (fun _ args ->
      let a = Vm.to_v args.(0) in
      a.(0) <- 99.0;
      Vm.VV a);
  let imp = Vm.import vm "scribble" in
  ignore (Vm.call vm (caller (Ir.Ccall (Some 1, imp, [ Ir.R 0 ]))) [||]);
  Alcotest.(check (list (float 0.0)))
    "ccall: argument register unchanged" [ 1.; 2.; 3.; 4. ] (read_lanes vm out);
  Alcotest.(check (list (float 0.0)))
    "ccall: result" [ 99.; 2.; 3.; 4. ] (read_lanes vm (out + 32))

let test_vector_vm_call_boundary () =
  let vm = new_vm () in
  let double = add_double vm in
  let arg = [| 1.; 2.; 3.; 4. |] in
  let r1 = Vm.call vm double [| Vm.VV arg |] in
  Alcotest.(check (list (float 0.0))) "caller's array unchanged"
    [ 1.; 2.; 3.; 4. ] (Array.to_list arg);
  check_lanes "result" [ 2.; 4.; 6.; 8. ] r1;
  (* the result is the caller's own copy: neither mutating it nor a
     second call can reach the other *)
  (match r1 with Vm.VV a -> a.(0) <- -1.0 | _ -> ());
  let r2 = Vm.call vm double [| Vm.VV arg |] in
  check_lanes "second result" [ 2.; 4.; 6.; 8. ] r2;
  check_lanes "first result keeps its own lanes" [ -1.; 4.; 6.; 8. ] r1

(* Every type-confused read traps with the message it always had. *)
let test_type_confusion_traps () =
  let vm = new_vm () in
  let v4 = Ir.Vsplat (Ir.Fk64, 4, 1, Ir.Kf 1.0) in
  let fl = Ir.Mov (2, Ir.Kf 1.5) in
  let int = Ir.Mov (3, Ir.Ki 8L) in
  let cases =
    [
      ("expected integer, got float", [ fl; Ir.Ibin (Ir.Add, 0, Ir.Ki 1L, Ir.R 2) ]);
      ("expected integer, got float", [ Ir.Ibin (Ir.Add, 0, Ir.Kf 1.0, Ir.Ki 1L) ]);
      ("expected integer, got vector", [ v4; Ir.Ibin (Ir.Mul, 0, Ir.R 1, Ir.Ki 1L) ]);
      ("expected integer, got unit", [ Ir.Iun (Ir.INeg, 0, Ir.R 3) ]);
      ("expected integer, got float", [ fl; Ir.Br (Ir.R 2, 2, 2) ]);
      ("expected integer, got float", [ fl; Ir.Load (Ir.I64, 0, Ir.R 2) ]);
      ("expected integer, got vector", [ v4; Ir.Lea (0, Ir.Ki 0L, Ir.R 1, 8, 0) ]);
      ("expected integer, got float", [ fl; Ir.Cvt (Ir.I32, Ir.F64, 0, Ir.R 2) ]);
      ("expected float, got integer", [ int; Ir.Fbin (Ir.Fk64, Ir.FAdd, 0, Ir.R 3, Ir.Kf 1.0) ]);
      ("expected float, got integer", [ Ir.Fun (Ir.Fk64, Ir.FSqrt, 0, Ir.Ki 4L) ]);
      ("expected float, got vector", [ v4; Ir.Fbin (Ir.Fk64, Ir.FMul, 0, Ir.Kf 1.0, Ir.R 1) ]);
      ("expected float, got unit", [ Ir.Vsplat (Ir.Fk64, 4, 0, Ir.R 2) ]);
      ("expected float, got integer", [ int; Ir.Cvt (Ir.F64, Ir.I32, 0, Ir.R 3) ]);
      ("expected vector", [ fl; Ir.Vbin (Ir.Fk64, 4, Ir.FAdd, 0, Ir.R 2, Ir.R 2) ]);
      ("expected vector", [ Ir.Vun (Ir.Fk64, 4, Ir.FNeg, 0, Ir.Kf 1.0) ]);
      ("expected vector", [ int; Ir.Vextract (0, Ir.R 3, 0) ]);
      ( "expected vector",
        [ int; Ir.Vstore (Ir.Fk64, 4, Ir.Ki (Int64.of_int (Mem.heap_base vm.Vm.mem)), Ir.R 3) ] );
      ( "vector store width mismatch",
        [ v4; Ir.Vstore (Ir.Fk64, 2, Ir.Ki (Int64.of_int (Mem.heap_base vm.Vm.mem)), Ir.R 1) ] );
      ("vextract lane out of range", [ v4; Ir.Vextract (0, Ir.R 1, 4) ]);
      ("integer division by zero", [ Ir.Ibin (Ir.Divu, 0, Ir.Ki 1L, Ir.Ki 0L) ]);
    ]
  in
  List.iter
    (fun (msg, instrs) ->
      let id = add_fn vm 4 (Array.of_list (instrs @ [ Ir.Ret None ])) in
      Alcotest.check_raises msg (Vm.Trap msg) (fun () -> ignore (Vm.call vm id [||])))
    cases;
  (* the boxed-value accessors used at the boundary share the messages *)
  Alcotest.check_raises "to_i" (Vm.Trap "expected integer, got unit") (fun () ->
      ignore (Vm.to_i Vm.VUnit));
  Alcotest.check_raises "to_f" (Vm.Trap "expected float, got vector") (fun () ->
      ignore (Vm.to_f (Vm.VV [||])));
  Alcotest.check_raises "to_v" (Vm.Trap "expected vector") (fun () ->
      ignore (Vm.to_v (Vm.VI 0L)))

let test_call_and_args () =
  let vm = new_vm () in
  let callee =
    Vm.add_func vm
      {
        Ir.fname = "add";
        nparams = 2;
        nregs = 3;
        frame_bytes = 0;
        code = [| Ir.Ibin (Ir.Add, 2, Ir.R 0, Ir.R 1); Ir.Ret (Some (Ir.R 2)) |];
      }
  in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code =
          [| Ir.Call (Some 0, callee, [ Ir.Ki 40L; Ir.Ki 2L ]); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm caller [||] with
  | Vm.VI v -> checki64 "call" 42L v
  | _ -> Alcotest.fail "int"

let test_indirect_call () =
  let vm = new_vm () in
  let callee =
    Vm.add_func vm
      {
        Ir.fname = "seven";
        nparams = 0;
        nregs = 0;
        frame_bytes = 0;
        code = [| Ir.Ret (Some (Ir.Ki 7L)) |];
      }
  in
  let fptr = Int64.of_int (Ir.func_addr callee) in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Callind (Some 0, Ir.Ki fptr, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm caller [||] with
  | Vm.VI v -> checki64 "indirect" 7L v
  | _ -> Alcotest.fail "int"

let test_indirect_bad_address_traps () =
  let vm = new_vm () in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Callind (Some 0, Ir.Ki 12345L, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  checkb "traps" true
    (match Vm.call vm caller [||] with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_undefined_function_traps () =
  let vm = new_vm () in
  let id = Vm.declare_func vm "ghost" in
  checkb "link error" true
    (match Vm.call vm id [||] with
    | exception Vm.Trap msg -> String.length msg > 0
    | _ -> false)

let test_frame_addr_and_stack () =
  let vm = new_vm () in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "f";
        nparams = 0;
        nregs = 2;
        frame_bytes = 32;
        code =
          [|
            Ir.FrameAddr (0, 8);
            Ir.Store (Ir.I64, Ir.R 0, Ir.Ki 99L);
            Ir.Load (Ir.I64, 1, Ir.R 0);
            Ir.Ret (Some (Ir.R 1));
          |];
      }
  in
  (match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "frame slot" 99L v
  | _ -> Alcotest.fail "int");
  (* stack pointer restored *)
  checki "sp restored" (Mem.stack_top vm.Vm.mem) vm.Vm.sp

let test_fuel_stops_infinite_loop () =
  let vm = new_vm () in
  Vm.set_fuel vm 10_000;
  let id =
    Vm.add_func vm
      { Ir.fname = "spin"; nparams = 0; nregs = 0; frame_bytes = 0; code = [| Ir.Jmp 0 |] }
  in
  checkb "fuel trap" true
    (match Vm.call vm id [||] with
    | exception Vm.Trap "fuel exhausted" -> true
    | _ -> false)

let test_builtin_malloc_free () =
  let vm = new_vm () in
  let malloc = Vm.import vm "malloc" in
  let free = Vm.import vm "free" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "m";
        nparams = 0;
        nregs = 2;
        frame_bytes = 0;
        code =
          [|
            Ir.Ccall (Some 0, malloc, [ Ir.Ki 128L ]);
            Ir.Store (Ir.I64, Ir.R 0, Ir.Ki 5L);
            Ir.Load (Ir.I64, 1, Ir.R 0);
            Ir.Ccall (None, free, [ Ir.R 0 ]);
            Ir.Ret (Some (Ir.R 1));
          |];
      }
  in
  (match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "heap roundtrip" 5L v
  | _ -> Alcotest.fail "int");
  checki "no leak" 0 (Alloc.live_blocks vm.Vm.alloc)

let test_builtin_sqrt () =
  let vm = new_vm () in
  let sqrt_i = Vm.import vm "sqrt" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "s";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Ccall (Some 0, sqrt_i, [ Ir.Kf 49.0 ]); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "sqrt" 7.0 v
  | _ -> Alcotest.fail "float"

let test_unresolved_import_traps () =
  let vm = new_vm () in
  let imp = Vm.import vm "no_such_c_function" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "u";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Ccall (Some 0, imp, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  checkb "traps" true
    (match Vm.call vm id [||] with exception Vm.Trap _ -> true | _ -> false)

let test_unset_slot_traps () =
  let vm = new_vm () in
  (* calling a slot that was never declared must be a clear diagnostic,
     not an index error or a confusing empty-name link failure *)
  checkb "trap names the slot" true
    (match Vm.call vm 7 [||] with
    | exception Vm.Trap msg -> msg = "call to unset function slot 7"
    | _ -> false);
  checkb "negative slot traps too" true
    (match Vm.call vm (-1) [||] with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_unset_slots_distinct () =
  let vm = new_vm () in
  (* the funcs array must not alias one shared placeholder record *)
  checkb "fresh slots are distinct records" true
    (vm.Vm.funcs.(0) != vm.Vm.funcs.(1));
  let _ = Vm.declare_func vm "a" in
  (* force a grow past the initial 16 slots *)
  for i = 0 to 20 do
    ignore (Vm.declare_func vm (Printf.sprintf "f%d" i))
  done;
  checkb "grown slots are distinct records" true
    (vm.Vm.funcs.(30) != vm.Vm.funcs.(31))

(* golden output for the IR pretty-printers (satellite of --dump-ir) *)
let test_pp_instr_golden () =
  let checks = Alcotest.(check string) in
  let pp i = Format.asprintf "%a" Ir.pp_instr i in
  checks "mov" "r1 := 42" (pp (Ir.Mov (1, Ir.Ki 42L)));
  checks "ibin" "r2 := add r0 r1" (pp (Ir.Ibin (Ir.Add, 2, Ir.R 0, Ir.R 1)));
  checks "fbin" "r3 := fmul r1 2.5" (pp (Ir.Fbin (Ir.Fk64, Ir.FMul, 3, Ir.R 1, Ir.Kf 2.5)));
  checks "lea" "r4 := lea r0 + r1*8 + 16" (pp (Ir.Lea (4, Ir.R 0, Ir.R 1, 8, 16)));
  checks "load" "r5 := load.f64 [r4]" (pp (Ir.Load (Ir.F64, 5, Ir.R 4)));
  checks "store" "store.i32 [r4] r5" (pp (Ir.Store (Ir.I32, Ir.R 4, Ir.R 5)));
  checks "vload" "r6 := vload.4 [r4]" (pp (Ir.Vload (Ir.Fk64, 4, 6, Ir.R 4)));
  checks "cvt" "r7 := cvt.i64->f64 r0" (pp (Ir.Cvt (Ir.I64, Ir.F64, 7, Ir.R 0)));
  checks "call" "r8 := call f3(r0, 1)"
    (pp (Ir.Call (Some 8, 3, [ Ir.R 0; Ir.Ki 1L ])));
  checks "void call" "_ := call f3()" (pp (Ir.Call (None, 3, [])));
  checks "br" "br r0 3 7" (pp (Ir.Br (Ir.R 0, 3, 7)));
  checks "ret" "ret r0" (pp (Ir.Ret (Some (Ir.R 0))));
  checks "frameaddr" "r9 := sp + 24" (pp (Ir.FrameAddr (9, 24)))

let test_pp_func_golden () =
  let f =
    {
      Ir.fname = "axpy";
      nparams = 2;
      nregs = 3;
      frame_bytes = 0;
      code =
        [|
          Ir.Fbin (Ir.Fk64, Ir.FMul, 2, Ir.R 0, Ir.Kf 2.0);
          Ir.Fbin (Ir.Fk64, Ir.FAdd, 2, Ir.R 2, Ir.R 1);
          Ir.Ret (Some (Ir.R 2));
        |];
    }
  in
  Alcotest.(check string)
    "pp_func"
    "func axpy(2 params, 3 regs, frame 0):\n\
    \    0: r2 := fmul r0 2\n\
    \    1: r2 := fadd r2 r1\n\
    \    2: ret r2\n"
    (Format.asprintf "%a" Ir.pp_func f)

(* ------------------------------------------------------------------ *)
(* IR validation: one single-fault function per rejection, each with
   the exact message the compile cache and the object loader report *)

let validate_cases =
  let base =
    { Ir.fname = "f"; nparams = 1; nregs = 4; frame_bytes = 0; code = [||] }
  in
  let f code = { base with Ir.code = Array.of_list code } in
  let ret = f [ Ir.Ret None ] in
  [
    ( "destination register",
      f [ Ir.Mov (4, Ir.Ki 0L); Ir.Ret None ],
      "pc 0: register r4 out of range" );
    ( "negative destination register",
      f [ Ir.Mov (-1, Ir.Ki 0L); Ir.Ret None ],
      "pc 0: register r-1 out of range" );
    ( "operand register",
      f [ Ir.Mov (0, Ir.R 9); Ir.Ret None ],
      "pc 0: register r9 out of range" );
    ( "call argument register",
      f [ Ir.Call (None, 0, [ Ir.R 0; Ir.R 5 ]); Ir.Ret None ],
      "pc 0: register r5 out of range" );
    ( "callind target register",
      f [ Ir.Callind (None, Ir.R 7, []); Ir.Ret None ],
      "pc 0: register r7 out of range" );
    ( "returned register",
      f [ Ir.Ret (Some (Ir.R 4)) ],
      "pc 0: register r4 out of range" );
    ("jump to -1", f [ Ir.Jmp (-1) ], "pc 0: jump target -1 out of range");
    ( "jump to the code length",
      f [ Ir.Mov (0, Ir.Ki 0L); Ir.Jmp 2 ],
      "pc 1: jump target 2 out of range" );
    ( "branch target",
      f [ Ir.Br (Ir.R 0, 0, 5) ],
      "pc 0: jump target 5 out of range" );
    ( "vector width 0",
      f [ Ir.Vsplat (Ir.Fk64, 0, 1, Ir.Kf 1.0); Ir.Ret None ],
      "pc 0: bad vector width 0" );
    ( "vector width 17",
      f [ Ir.Vload (Ir.Fk32, 17, 1, Ir.R 0); Ir.Ret None ],
      "pc 0: bad vector width 17" );
    ( "vextract lane 16",
      f [ Ir.Vextract (1, Ir.R 0, 16); Ir.Ret None ],
      "pc 0: bad vector lane 16" );
    ( "call target",
      f [ Ir.Call (None, 2, []); Ir.Ret None ],
      "pc 0: call target 2 out of range" );
    ( "import",
      f [ Ir.Ccall (None, 1, []); Ir.Ret None ],
      "pc 0: import 1 out of range" );
    ( "more params than registers",
      { ret with Ir.nparams = 3; nregs = 2 },
      "bad register counts (3 params, 2 regs)" );
    ( "negative params",
      { ret with Ir.nparams = -1 },
      "bad register counts (-1 params, 4 regs)" );
    ( "absurd frame size",
      { ret with Ir.frame_bytes = 1 lsl 24 },
      "implausible frame size 16777216" );
    ( "negative frame size",
      { ret with Ir.frame_bytes = -8 },
      "implausible frame size -8" );
    ("empty body", f [], "empty body");
    ( "no terminator",
      f [ Ir.Mov (0, Ir.Ki 0L) ],
      "body does not end in a terminator" );
  ]

let test_validate_rejections () =
  List.iter
    (fun (what, fn, msg) ->
      match Ir.validate ~nfuncs:2 ~nimports:1 fn with
      | Ok () -> Alcotest.failf "%s: validated" what
      | Error got -> Alcotest.(check string) what msg got)
    validate_cases

(* Every function the compiler emits for the example programs passes,
   before and after the optimizer. *)
let test_validate_compiled_examples () =
  let dir = "../examples/programs" in
  let progs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun p -> Filename.check_suffix p ".t")
    |> List.sort compare
  in
  checkb "example programs found" true (progs <> []);
  List.iter
    (fun prog ->
      let path = Filename.concat dir prog in
      let src = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun opt_level ->
          let e = Terrastd.create ~opt_level () in
          let _, r = Terra.Engine.run_capture_protected e ~file:path src in
          checkb (prog ^ " runs") true (Result.is_ok r);
          let vm = e.Terra.Engine.ctx.Terra.Context.vm in
          let checked = ref 0 in
          for id = 0 to vm.Vm.nfuncs - 1 do
            if Vm.func_defined vm id then begin
              let fn = Vm.func vm id in
              incr checked;
              match
                Ir.validate ~nfuncs:vm.Vm.nfuncs ~nimports:vm.Vm.nimports fn
              with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "%s at opt %d: %s: %s" prog opt_level
                    fn.Ir.fname msg
            end
          done;
          checkb (prog ^ " compiled functions") true (!checked > 0))
        [ 0; 2 ])
    progs

let prop_cvt_int_widths =
  QCheck.Test.make ~count:200 ~name:"cvt to i8/i16/i32 wraps like C"
    QCheck.int64 (fun x ->
      let run to_t =
        match
          compile_and_run ~nparams:0 ~nregs:1
            [| Ir.Cvt (Ir.I64, to_t, 0, Ir.Ki x); Ir.Ret (Some (Ir.R 0)) |]
        with
        | Vm.VI v -> v
        | _ -> Alcotest.fail "int"
      in
      let i8 = run Ir.I8 and i32 = run Ir.I32 in
      let expect_i8 =
        let m = Int64.to_int (Int64.logand x 0xffL) in
        Int64.of_int (if m >= 128 then m - 256 else m)
      in
      i8 = expect_i8 && i32 = Int64.of_int32 (Int64.to_int32 x))

let prop_int_add_matches_ocaml =
  QCheck.Test.make ~count:200 ~name:"VM int arithmetic = Int64 arithmetic"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let run op =
        match
          compile_and_run ~nparams:0 ~nregs:1
            [| Ir.Ibin (op, 0, Ir.Ki a, Ir.Ki b); Ir.Ret (Some (Ir.R 0)) |]
        with
        | Vm.VI v -> v
        | _ -> Alcotest.fail "int"
      in
      run Ir.Add = Int64.add a b
      && run Ir.Sub = Int64.sub a b
      && run Ir.Mul = Int64.mul a b)

let () =
  Alcotest.run "tvm"
    [
      ( "mem",
        [
          Alcotest.test_case "an engine costs what it touches" `Quick
            test_engine_costs_what_it_touches;
          Alcotest.test_case "scalar roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "null faults" `Quick test_mem_null_faults;
          Alcotest.test_case "oob faults" `Quick test_mem_oob_faults;
          Alcotest.test_case "negative length faults" `Quick
            test_mem_negative_len_faults;
          Alcotest.test_case "length overflow faults" `Quick
            test_mem_len_overflow_faults;
          Alcotest.test_case "cstring" `Quick test_cstring_roundtrip;
          Alcotest.test_case "unterminated cstring bounded" `Quick
            test_cstring_unterminated_bounded;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "static alloc aligned" `Quick
            test_alloc_static_aligned;
          Alcotest.test_case "unallocated statics fault" `Quick
            test_unallocated_statics_fault;
          QCheck_alcotest.to_alcotest prop_fingerprint_audit;
          QCheck_alcotest.to_alcotest prop_mem_reference;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
          Alcotest.test_case "free reuse" `Quick test_free_reuse;
          Alcotest.test_case "double free rejected" `Quick
            test_double_free_rejected;
          Alcotest.test_case "free null ok" `Quick test_free_null_ok;
          Alcotest.test_case "realloc copies" `Quick test_realloc_copies;
          Alcotest.test_case "out of memory" `Quick test_oom;
          QCheck_alcotest.to_alcotest prop_no_overlap;
          QCheck_alcotest.to_alcotest prop_malloc_free_balance;
        ] );
      ( "ir",
        [
          Alcotest.test_case "single-fault functions are rejected" `Quick
            test_validate_rejections;
          Alcotest.test_case "compiled example programs validate" `Quick
            test_validate_compiled_examples;
        ] );
      ( "vm",
        [
          Alcotest.test_case "ret const" `Quick test_ret_const;
          Alcotest.test_case "int arithmetic" `Quick test_int_arith;
          Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
          Alcotest.test_case "float arithmetic" `Quick test_float_arith;
          Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
          Alcotest.test_case "branch loop" `Quick test_branch_loop;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "narrow store truncates" `Quick
            test_narrow_store_truncates;
          Alcotest.test_case "vector ops" `Quick test_vector_ops;
          Alcotest.test_case "vbin destination aliases a source" `Quick
            test_vbin_dest_aliases_source;
          Alcotest.test_case "mov of a vector copies its lanes" `Quick
            test_mov_vector_copies;
          Alcotest.test_case "vectors cross call/callind/ccall unaliased" `Quick
            test_vector_call_boundary;
          Alcotest.test_case "vectors cross Vm.call unaliased" `Quick
            test_vector_vm_call_boundary;
          Alcotest.test_case "type-confusion traps keep their messages" `Quick
            test_type_confusion_traps;
          Alcotest.test_case "call with args" `Quick test_call_and_args;
          Alcotest.test_case "indirect call" `Quick test_indirect_call;
          Alcotest.test_case "indirect bad address traps" `Quick
            test_indirect_bad_address_traps;
          Alcotest.test_case "undefined function traps" `Quick
            test_undefined_function_traps;
          Alcotest.test_case "unset slot traps" `Quick test_unset_slot_traps;
          Alcotest.test_case "unset slots are distinct" `Quick
            test_unset_slots_distinct;
          Alcotest.test_case "pp_instr golden" `Quick test_pp_instr_golden;
          Alcotest.test_case "pp_func golden" `Quick test_pp_func_golden;
          Alcotest.test_case "frame and stack" `Quick test_frame_addr_and_stack;
          Alcotest.test_case "fuel stops infinite loop" `Quick
            test_fuel_stops_infinite_loop;
          Alcotest.test_case "malloc/free builtins" `Quick
            test_builtin_malloc_free;
          Alcotest.test_case "sqrt builtin" `Quick test_builtin_sqrt;
          Alcotest.test_case "unresolved import traps" `Quick
            test_unresolved_import_traps;
          QCheck_alcotest.to_alcotest prop_cvt_int_widths;
          QCheck_alcotest.to_alcotest prop_int_add_matches_ocaml;
        ] );
    ]
