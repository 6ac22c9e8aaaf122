exception Fault of int * string

(* Transactional journal: page-granular copy-on-write.  The first store
   touching a page inside a transaction saves the page's pre-image;
   rollback blits the pre-images back.  Statics bump-allocated *during*
   the transaction (addresses at or above [tx_statics_floor]) are
   compile-time artifacts — interned strings, vtables — and are monotone
   like compiled code, so pages wholly above the floor are never
   journaled and the floor page is only restored below the floor. *)
type txn = {
  tx_pages : (int, string) Hashtbl.t;  (** page index -> pre-image *)
  tx_statics_floor : int;  (** statics_ptr when the txn began *)
}

type t = {
  data : Pagedigest.arena;  (** [pages.data], kept at hand for accesses *)
  pages : Pagedigest.t;  (** the arena, its write bitmap and page digests *)
  mutable statics_ptr : int;
  heap_base : int;
  heap_limit : int;
  stack_top : int;
  mutable shadow : Shadow.t option;  (** present iff checked mode is on *)
  mutable txn : txn option;  (** active transaction, if any *)
  mutable probe : Tprof.Probe.t option;  (** profiler, if attached *)
}

let statics_base = 4096
let statics_limit = 1 lsl 20
let default_bytes = 192 * (1 lsl 20)
let stack_bytes = 8 * (1 lsl 20)

let create ?(bytes = default_bytes) () =
  let bytes = max bytes (statics_limit + stack_bytes + (1 lsl 20)) in
  let pages = Pagedigest.create bytes in
  {
    data = pages.Pagedigest.data;
    pages;
    statics_ptr = statics_base;
    heap_base = statics_limit;
    heap_limit = bytes - stack_bytes;
    stack_top = bytes;
    shadow = None;
    txn = None;
    probe = None;
  }

let size t = Bigarray.Array1.dim t.data

(* ------------------------------------------------------------------ *)
(* Transactions *)

let page_bits = Pagedigest.page_bits
let page_size = Pagedigest.page_size

(* Every write marks its pages for the fingerprint ({!Pagedigest}),
   inside a transaction or not, independently of [note].  This is
   [Pagedigest.touch] spelled out, so that a store stays free of calls
   when modules are compiled without cross-module inlining. *)
let[@inline] touch t addr len =
  if len > 0 then begin
    let p = addr lsr page_bits in
    Bytes.unsafe_set t.pages.Pagedigest.state p Pagedigest.dirty;
    let q = (addr + len - 1) lsr page_bits in
    if q > p then Pagedigest.touch_pages t.pages (p + 1) q
  end

(** Save the pre-image of every page overlapping [addr, addr+len) that a
    rollback would need.  Called before every mutation. *)
let note t addr len =
  match t.txn with
  | None -> ()
  | Some tx ->
      if len > 0 && addr >= 0 then begin
        let last = min (addr + len - 1) (size t - 1) in
        for p = addr lsr page_bits to last lsr page_bits do
          let page_start = p lsl page_bits in
          (* fresh statics are monotone: skip pages wholly above the floor *)
          if
            not
              (page_start >= tx.tx_statics_floor
              && page_start + page_size <= statics_limit)
            && not (Hashtbl.mem tx.tx_pages p)
          then
            let plen = min page_size (size t - page_start) in
            Hashtbl.add tx.tx_pages p
              (Pagedigest.sub_string t.pages page_start plen)
        done
      end

let begin_txn t =
  if t.txn <> None then invalid_arg "Mem.begin_txn: transaction already active";
  let tx =
    { tx_pages = Hashtbl.create 64; tx_statics_floor = t.statics_ptr }
  in
  t.txn <- Some tx;
  tx

let in_txn t = t.txn <> None
let statics_mark t = t.statics_ptr

let rollback t tx =
  Hashtbl.iter
    (fun p img ->
      let page_start = p lsl page_bits in
      let len = String.length img in
      (* the page containing the statics floor: restore only the old part *)
      let len =
        if page_start < tx.tx_statics_floor
           && page_start + len > tx.tx_statics_floor
           && tx.tx_statics_floor < statics_limit
        then tx.tx_statics_floor - page_start
        else len
      in
      Pagedigest.blit_string t.pages img page_start len)
    tx.tx_pages;
  t.txn <- None

let commit t (_ : txn) = t.txn <- None

(** Digest of the transactional portion of the arena: statics below
    [statics_upto] (monotone compile-time statics above it are excluded)
    plus the heap and stack.  Two equal fingerprints mean the session
    data state is byte-identical.  Only pages written since the last
    fingerprint are re-hashed; [~from_scratch:true] re-hashes every page
    instead, through the same code, and must give the same value. *)
let fingerprint ?(from_scratch = false) ?statics_upto t =
  let upto =
    match statics_upto with
    | Some n -> min n statics_limit
    | None -> t.statics_ptr
  in
  let pd = if from_scratch then Pagedigest.invalidated t.pages else t.pages in
  let d1 = Pagedigest.prefix pd (max 0 upto) in
  let d2 =
    Pagedigest.root pd
      ~first_group:(statics_limit / (page_size * Pagedigest.group_pages))
  in
  Digest.to_hex (Digest.string (d1 ^ d2))

let attach_shadow t sh = t.shadow <- Some sh
let shadow t = t.shadow
let checked t = t.shadow <> None
let set_probe t p = t.probe <- Some p

let heap_base t = t.heap_base
let heap_limit t = t.heap_limit
let stack_top t = t.stack_top

let align_up n a = (n + a - 1) / a * a

let alloc_static t ~align n =
  let addr = align_up t.statics_ptr (max 1 align) in
  if addr + n > statics_limit then raise (Fault (addr, "static region full"));
  t.statics_ptr <- addr + n;
  addr

(* [len < 0] must fault (a negative length slips past an [addr + len]
   upper-bound test), and the upper bound is phrased as a subtraction so
   a huge [len] cannot wrap [addr + len] around.  Statics in
   [statics_ptr, statics_limit) are unallocated: no checkpoint, rollback
   or default-mark fingerprint covers them, so an access overlapping
   them faults too (a heap or stack address pays the one
   [addr < statics_limit] compare). *)
let check t addr len what =
  if len < 0 then raise (Fault (addr, what ^ " (negative length)"));
  if addr < statics_base || addr > size t - len then
    raise (Fault (addr, what));
  if
    addr < statics_limit && addr + len > t.statics_ptr
    && t.statics_ptr < statics_limit
  then
    raise (Fault (addr, what ^ " (unallocated static)"));
  match t.shadow with
  | None -> ()
  | Some sh ->
      (match t.probe with
      | Some p when p.Tprof.Probe.active -> Tprof.Probe.redzone_check p
      | _ -> ());
      Shadow.check sh ~what ~addr ~len

(* Loads and stores use the unchecked bigstring primitives: [check] has
   bounded the access.  They are native-endian, and the arena is
   little-endian. *)
external ba_get16 : Pagedigest.arena -> int -> int = "%caml_bigstring_get16u"
external ba_get32 : Pagedigest.arena -> int -> int32 = "%caml_bigstring_get32u"
external ba_get64 : Pagedigest.arena -> int -> int64 = "%caml_bigstring_get64u"

external ba_set16 : Pagedigest.arena -> int -> int -> unit
  = "%caml_bigstring_set16u"

external ba_set32 : Pagedigest.arena -> int -> int32 -> unit
  = "%caml_bigstring_set32u"

external ba_set64 : Pagedigest.arena -> int -> int64 -> unit
  = "%caml_bigstring_set64u"

external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let get_u8 t a =
  check t a 1 "load u8";
  Char.code (Bigarray.Array1.unsafe_get t.data a)

let get_i8 t a =
  let v = get_u8 t a in
  if v >= 128 then v - 256 else v

let[@inline] u16 t a =
  let v = ba_get16 t.data a in
  if Sys.big_endian then swap16 v else v

let get_u16 t a =
  check t a 2 "load u16";
  u16 t a

let get_i16 t a =
  check t a 2 "load i16";
  (u16 t a lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

let[@inline] get_i32 t a =
  check t a 4 "load i32";
  let v = ba_get32 t.data a in
  if Sys.big_endian then swap32 v else v

let[@inline] get_i64 t a =
  check t a 8 "load i64";
  let v = ba_get64 t.data a in
  if Sys.big_endian then swap64 v else v

let[@inline] get_f32 t a = Int32.float_of_bits (get_i32 t a)
let[@inline] get_f64 t a = Int64.float_of_bits (get_i64 t a)

(* Lane transfers write straight into (or read straight from) a float
   array, so a vector access boxes nothing; each lane is still checked,
   journaled and converted exactly as the scalar accessor would. *)
let get_f32s t a dst =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- get_f32 t (a + (4 * i))
  done

let get_f64s t a dst =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- get_f64 t (a + (8 * i))
  done

let set_u8 t a v =
  check t a 1 "store u8";
  note t a 1;
  touch t a 1;
  Bigarray.Array1.unsafe_set t.data a (Char.unsafe_chr (v land 0xff))

let set_u16 t a v =
  check t a 2 "store u16";
  note t a 2;
  touch t a 2;
  let v = v land 0xffff in
  ba_set16 t.data a (if Sys.big_endian then swap16 v else v)

let[@inline] set_i32 t a v =
  check t a 4 "store i32";
  note t a 4;
  touch t a 4;
  ba_set32 t.data a (if Sys.big_endian then swap32 v else v)

let[@inline] set_i64 t a v =
  check t a 8 "store i64";
  note t a 8;
  touch t a 8;
  ba_set64 t.data a (if Sys.big_endian then swap64 v else v)

let[@inline] set_f32 t a v = set_i32 t a (Int32.bits_of_float v)
let[@inline] set_f64 t a v = set_i64 t a (Int64.bits_of_float v)

let set_f32s t a src =
  for i = 0 to Array.length src - 1 do
    set_f32 t (a + (4 * i)) src.(i)
  done

let set_f64s t a src =
  for i = 0 to Array.length src - 1 do
    set_f64 t (a + (8 * i)) src.(i)
  done

let blit t ~src ~dst ~len =
  check t src len "memcpy src";
  check t dst len "memcpy dst";
  note t dst len;
  Pagedigest.blit t.pages ~src ~dst ~len

let fill t addr len c =
  check t addr len "memset";
  note t addr len;
  Pagedigest.fill t.pages addr len c

(* A C string that long is a bug, not data: stop scanning instead of
   walking the rest of the arena. *)
let max_cstring = 1 lsl 20

let get_cstring t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if a - addr >= max_cstring then
      raise
        (Fault
           ( addr,
             Printf.sprintf "unterminated string (no NUL within %d bytes)"
               max_cstring ));
    let c = get_u8 t a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

(** Fault-injection entry: silently corrupt one byte, bypassing all
    checks — models a flipped bit in an unchecked heap. *)
let corrupt_byte t addr =
  if addr >= 0 && addr < size t then begin
    note t addr 1;
    touch t addr 1;
    t.data.{addr} <- '\xA5'
  end

let set_cstring t addr s =
  check t addr (String.length s + 1) "store string";
  note t addr (String.length s);
  Pagedigest.blit_string t.pages s addr (String.length s);
  set_u8 t (addr + String.length s) 0

(** Fault-injection entry for tests: flip one byte past the rollback
    journal (no [note]) — a journal bug, which the next fingerprint
    compared across a rollback must catch. *)
let stray_store t addr =
  if addr >= 0 && addr < size t then begin
    touch t addr 1;
    t.data.{addr} <- Char.chr (Char.code t.data.{addr} lxor 0xff)
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** Bytes [0, statics_mark), verbatim. *)
let statics_image t = Pagedigest.sub_string t.pages 0 t.statics_ptr

(** [(offset, contents)] of every non-zero page of [heap_base, size), in
    offset order. *)
let heap_pages t = Pagedigest.nonzero_pages t.pages ~from:t.heap_base

(** Replace the whole arena with an image: zero, then [statics] at 0 and
    each [(offset, contents)] page, and forget every page digest.  No
    transaction may be active. *)
let load_image t ~statics_ptr ~statics ~pages =
  if t.txn <> None then invalid_arg "Mem.load_image: transaction active";
  Pagedigest.load t.pages ((0, statics) :: pages);
  t.statics_ptr <- statics_ptr
