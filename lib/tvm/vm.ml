(** The virtual machine: executes {!Ir} functions against a {!Mem.t},
    threading every retired operation through the {!Tmachine} cost model.
    This is the substitute for LLVM-JITed native code in the paper. *)

open Tmachine

type value = VI of int64 | VF of float | VV of float array | VUnit

exception Trap of string

type t = {
  mem : Mem.t;
  alloc : Alloc.t;
  machine : Machine.t;
  mutable funcs : Ir.func array;
  mutable nfuncs : int;
  mutable imports : string array;
  mutable nimports : int;
  builtins : (string, builtin) Hashtbl.t;
  mutable sp : int;
  mutable fuel : int;
  mutable fuel_limit : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable steps : int;  (** retired instructions, for fault injection *)
  mutable fuel_mark : int;  (** [steps] at the last {!set_fuel} *)
  mutable faults : Fault.t option;
  probe : Tprof.Probe.t;  (** tracing/profiling probe; off by default *)
  mutable rand_state : int64;
      (** deterministic xorshift state for the modeled C [rand]/[srand];
          per-VM so concurrent engines draw independent streams *)
  print_buf : Buffer.t;  (** default landing spot for modeled C output *)
  mutable print_sink : string -> unit;
      (** where [puts]/[print_*] text goes; capture swaps this *)
}

and builtin = t -> value array -> value

let initial_rand_state = 0x9E3779B97F4A7C15L

let create ?mem_bytes ?(checked = false) ?faults machine =
  let mem = Mem.create ?bytes:mem_bytes () in
  let probe = Tprof.Probe.create () in
  Mem.set_probe mem probe;
  let print_buf = Buffer.create 256 in
  {
    mem;
    alloc = Alloc.create ~checked mem;
    machine;
    funcs =
      Array.init 16 (fun i ->
          { Ir.fname = Printf.sprintf "<unset:%d>" i; nparams = 0; nregs = 0;
            frame_bytes = 0; code = [||] });
    nfuncs = 0;
    imports = Array.make 16 "";
    nimports = 0;
    builtins = Hashtbl.create 32;
    sp = Mem.stack_top mem;
    fuel = max_int;
    fuel_limit = max_int;
    depth = 0;
    max_depth = 10_000;
    steps = 0;
    fuel_mark = 0;
    faults =
      (match faults with
      | None | Some [] -> None
      | Some specs -> Some (Fault.create specs));
    probe;
    rand_state = initial_rand_state;
    print_buf;
    print_sink = Buffer.add_string print_buf;
  }

let checked t = Mem.checked t.mem
let steps t = t.steps
let probe t = t.probe

(** Resolve a VM function id to its name, for profile reports. *)
let func_name t id =
  if id >= 0 && id < t.nfuncs then t.funcs.(id).Ir.fname
  else Printf.sprintf "<fn:%d>" id

(* ------------------------------------------------------------------ *)
(* Transactions: crash-consistent Terra calls.  A transaction journals
   heap/statics/stack writes (Mem), allocator bookkeeping (Alloc), and
   sanitizer state (Shadow), and saves the VM's own stack registers, so
   a trap anywhere inside a call can be rolled back to a byte-identical
   session.  Compiled code, fuel accounting, and armed fault specs are
   deliberately NOT rolled back: code is monotone, fuel is a consumed
   resource, and one-shot faults must stay consumed so a retry observes
   the fault as transient. *)

type txn = {
  tx_mem : Mem.txn;
  tx_alloc : Alloc.txn;
  tx_shadow : Shadow.txn option;
  tx_sp : int;
  tx_depth : int;
}

let in_txn t = Mem.in_txn t.mem

let begin_txn t =
  if t.probe.Tprof.Probe.active then Tprof.Probe.txn_begin t.probe;
  let tx_mem = Mem.begin_txn t.mem in
  {
    tx_mem;
    tx_alloc = Alloc.begin_txn t.alloc;
    tx_shadow = Option.map Shadow.begin_txn (Mem.shadow t.mem);
    tx_sp = t.sp;
    tx_depth = t.depth;
  }

let rollback t tx =
  if t.probe.Tprof.Probe.active then Tprof.Probe.txn_rollback t.probe;
  Mem.rollback t.mem tx.tx_mem;
  Alloc.rollback t.alloc tx.tx_alloc;
  (match (tx.tx_shadow, Mem.shadow t.mem) with
  | Some stx, Some sh -> Shadow.rollback sh stx
  | _ -> ());
  t.sp <- tx.tx_sp;
  t.depth <- tx.tx_depth

let commit t tx =
  if t.probe.Tprof.Probe.active then Tprof.Probe.txn_commit t.probe;
  Mem.commit t.mem tx.tx_mem;
  Alloc.commit t.alloc tx.tx_alloc;
  match (tx.tx_shadow, Mem.shadow t.mem) with
  | Some stx, Some sh -> Shadow.commit sh stx
  | _ -> ()

(** Hex digest of the whole transactional session state: arena bytes
    (statics below [statics_upto], heap, stack), allocator bookkeeping,
    and sanitizer shadow state.  Equal fingerprints before a call and
    after its rollback prove the session is unchanged.  [from_scratch]
    re-hashes every page rather than only those written since the last
    fingerprint (see {!Mem.fingerprint}); tests use it as the oracle. *)
let fingerprint ?from_scratch ?statics_upto t =
  let sh =
    match Mem.shadow t.mem with
    | Some sh -> Shadow.fingerprint ?from_scratch sh
    | None -> "-"
  in
  Digest.to_hex
    (Digest.string
       (Mem.fingerprint ?from_scratch ?statics_upto t.mem
       ^ Alloc.fingerprint t.alloc ^ sh ^ string_of_int t.sp))

(** Install a fault spec after creation (tests inject mid-run). *)
let add_fault t spec =
  match t.faults with
  | Some f -> Fault.add f spec
  | None -> t.faults <- Some (Fault.create [ spec ])

(** Called by builtins on every program heap allocation. *)
let note_alloc t =
  match t.faults with
  | None -> ()
  | Some f -> (
      try Fault.on_alloc f
      with Fault.Injected (spec, _) as e ->
        if t.probe.Tprof.Probe.active then
          Tprof.Probe.fault t.probe (Fault.code spec);
        raise e)

let register_builtin t name fn = Hashtbl.replace t.builtins name fn

let undefined_func name =
  { Ir.fname = name; nparams = 0; nregs = 0; frame_bytes = 0; code = [||] }

(* [mk] receives the slot index and is called once per fresh slot, so
   unset entries never alias a shared record. *)
let grow arr n mk =
  if n < Array.length arr then arr
  else begin
    let bigger = Array.init (max 16 (2 * n)) mk in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

(** Reserve a function id (a declaration); define it later with
    {!set_func}. Calling it before definition traps — the paper's link
    error for declared-but-undefined functions. *)
let declare_func t name =
  t.funcs <-
    grow t.funcs t.nfuncs (fun i ->
        undefined_func (Printf.sprintf "<unset:%d>" i));
  let id = t.nfuncs in
  t.funcs.(id) <- undefined_func name;
  t.nfuncs <- t.nfuncs + 1;
  id

let set_func t id f = t.funcs.(id) <- f
let add_func t f =
  let id = declare_func t f.Ir.fname in
  set_func t id f;
  id

let func_defined t id = Array.length t.funcs.(id).Ir.code > 0
let func t id = t.funcs.(id)

let import t name =
  let rec find i =
    if i >= t.nimports then None
    else if t.imports.(i) = name then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> i
  | None ->
      t.imports <- grow t.imports t.nimports (fun _ -> "");
      t.imports.(t.nimports) <- name;
      t.nimports <- t.nimports + 1;
      t.nimports - 1

(* ------------------------------------------------------------------ *)
(* Value kinds.  A register holds one of four kinds of value; the same
   one-byte tags name them in a frame's register file and in the trap
   messages of a type-confused read. *)

let k_unit = '\000'
let k_int = '\001'
let k_float = '\002'
let k_vec = '\003'

let kind_name k =
  if k = k_int then "integer"
  else if k = k_float then "float"
  else if k = k_vec then "vector"
  else "unit"

let kind_of_value = function
  | VI _ -> k_int
  | VF _ -> k_float
  | VV _ -> k_vec
  | VUnit -> k_unit

(* Out of line, so the inlined readers stay small. *)
let[@inline never] expected want k =
  raise (Trap (Printf.sprintf "expected %s, got %s" want (kind_name k)))

let[@inline never] expected_vector () = raise (Trap "expected vector")

let to_i = function VI i -> i | v -> expected "integer" (kind_of_value v)
let to_f = function VF f -> f | v -> expected "float" (kind_of_value v)
let to_v = function VV v -> v | _ -> expected_vector ()
let bool_val b = VI (if b then 1L else 0L)
let truthy v = to_i v <> 0L

(* ------------------------------------------------------------------ *)
(* Operator semantics, defined once.  The interpreter loop inlines these
   raw evaluators on unboxed operands; [eval_ibin], [eval_fbin],
   [eval_funop] and [eval_cvt] wrap the same functions for Topt's
   constant folding. *)

let[@inline never] div_by_zero () = raise (Trap "integer division by zero")
let[@inline] of_bool b = if b then 1L else 0L

let[@inline] unsigned_lt (a : int64) (b : int64) =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] raw_ibin op (a : int64) (b : int64) =
  let open Int64 in
  match op with
  | Ir.Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Divs -> if b = 0L then div_by_zero () else div a b
  | Divu -> if b = 0L then div_by_zero () else unsigned_div a b
  | Rems -> if b = 0L then div_by_zero () else rem a b
  | Remu -> if b = 0L then div_by_zero () else unsigned_rem a b
  | Band -> logand a b
  | Bor -> logor a b
  | Bxor -> logxor a b
  | Shl -> shift_left a (to_int b land 63)
  | Shrs -> shift_right a (to_int b land 63)
  | Shru -> shift_right_logical a (to_int b land 63)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lts -> of_bool (a < b)
  | Les -> of_bool (a <= b)
  | Gts -> of_bool (a > b)
  | Ges -> of_bool (a >= b)
  | Ltu -> of_bool (unsigned_lt a b)
  | Leu -> of_bool (not (unsigned_lt b a))
  | Gtu -> of_bool (unsigned_lt b a)
  | Geu -> of_bool (not (unsigned_lt a b))
  | Mins -> if a <= b then a else b
  | Maxs -> if a >= b then a else b

let eval_ibin op a b = VI (raw_ibin op a b)

let round_fk fk (x : float) =
  match fk with
  | Ir.Fk32 -> Int32.float_of_bits (Int32.bits_of_float x)
  | Ir.Fk64 -> x

let is_fcmp = function
  | Ir.FEq | FNe | FLt | FLe | FGt | FGe -> true
  | FAdd | FSub | FMul | FDiv | FMin | FMax -> false

let[@inline] raw_fcmp op (a : float) (b : float) =
  match op with
  | Ir.FEq -> a = b
  | FNe -> a <> b
  | FLt -> a < b
  | FLe -> a <= b
  | FGt -> a > b
  | FGe -> a >= b
  | FAdd | FSub | FMul | FDiv | FMin | FMax -> false

(* Arithmetic result of [op]; a comparison yields 1.0 or 0.0, which is
   its value in a vector lane. *)
let[@inline] raw_fbin fk op (a : float) (b : float) =
  match op with
  | Ir.FAdd -> round_fk fk (a +. b)
  | FSub -> round_fk fk (a -. b)
  | FMul -> round_fk fk (a *. b)
  | FDiv -> round_fk fk (a /. b)
  | FMin -> Float.min a b
  | FMax -> Float.max a b
  | FEq | FNe | FLt | FLe | FGt | FGe -> if raw_fcmp op a b then 1.0 else 0.0

let eval_fbin fk op a b =
  if is_fcmp op then bool_val (raw_fcmp op a b) else VF (raw_fbin fk op a b)

let[@inline] eval_funop fk op a =
  match op with
  | Ir.FNeg -> round_fk fk (-.a)
  | FAbs -> Float.abs a
  | FSqrt -> round_fk fk (sqrt a)

(* Conversions, split by the kind of the source and of the target. *)
let[@inline] cvt_to_int to_t (i : int64) =
  match to_t with
  | Ir.I8 ->
      let x = Int64.to_int i land 0xff in
      Int64.of_int (if x >= 128 then x - 256 else x)
  | U8 -> Int64.of_int (Int64.to_int i land 0xff)
  | I16 ->
      let x = Int64.to_int i land 0xffff in
      Int64.of_int (if x >= 32768 then x - 65536 else x)
  | U16 -> Int64.of_int (Int64.to_int i land 0xffff)
  | I32 -> Int64.of_int32 (Int64.to_int32 i)
  | U32 -> Int64.logand i 0xffffffffL
  | I64 | F32 | F64 -> i

let[@inline] cvt_to_float to_t (f : float) =
  match to_t with Ir.F32 -> round_fk Fk32 f | _ -> f

let eval_cvt from_t to_t v =
  match (Ir.mty_is_float from_t, Ir.mty_is_float to_t) with
  | true, true -> VF (cvt_to_float to_t (to_f v))
  | true, false -> VI (cvt_to_int to_t (Int64.of_float (to_f v)))
  | false, true -> VF (cvt_to_float to_t (Int64.to_float (to_i v)))
  | false, false -> VI (cvt_to_int to_t (to_i v))

(* ------------------------------------------------------------------ *)
(* The register file of one frame: [slots] holds 8 raw bytes per
   register (an int64, or a float's bits), [tags] one kind byte per
   register, and [vecs] one lane buffer per register, updated in place
   by vector instructions.  Reads check the tag, so a type-confused
   read traps with the same message as {!to_i}/{!to_f}/{!to_v}.  A lane
   buffer is never shared: [Mov] copies lanes, and a vector leaving the
   frame (call argument, result) is boxed as a fresh copy. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Register indices are bounds-checked by the tag access; the slot
   access after it is then in range. *)
let[@inline] read_i slots tags = function
  | Ir.R r ->
      let k = Bytes.get tags r in
      if k = k_int then get64 slots (r lsl 3) else expected "integer" k
  | Ki i -> i
  | Kf _ -> expected "integer" k_float

let[@inline] read_f slots tags = function
  | Ir.R r ->
      let k = Bytes.get tags r in
      if k = k_float then Int64.float_of_bits (get64 slots (r lsl 3))
      else expected "float" k
  | Kf f -> f
  | Ki _ -> expected "float" k_int

let[@inline] read_v tags vecs = function
  | Ir.R r -> if Bytes.get tags r = k_vec then vecs.(r) else expected_vector ()
  | Ki _ | Kf _ -> expected_vector ()

let[@inline] set_i slots tags d (v : int64) =
  Bytes.set tags d k_int;
  set64 slots (d lsl 3) v

let[@inline] set_f slots tags d (v : float) =
  Bytes.set tags d k_float;
  set64 slots (d lsl 3) (Int64.bits_of_float v)

(* Register [d]'s lane buffer, resized to [n] lanes.  Callers read
   their source buffers first: when [d] is also a source of the same
   width the buffer is reused in place, which is safe because every
   vector op writes lane [i] from lane [i] of its sources only. *)
let[@inline] vec_dest tags vecs d n =
  Bytes.set tags d k_vec;
  let cur = vecs.(d) in
  if Array.length cur = n then cur
  else begin
    let fresh = Array.create_float n in
    vecs.(d) <- fresh;
    fresh
  end

let set_lanes tags vecs d src =
  let n = Array.length src in
  Array.blit src 0 (vec_dest tags vecs d n) 0 n

(* A register or operand as a boxed {!value}, for crossing a call
   boundary; vectors are copied. *)
let box slots tags vecs = function
  | Ir.R r ->
      let k = Bytes.get tags r in
      if k = k_int then VI (get64 slots (r lsl 3))
      else if k = k_float then VF (Int64.float_of_bits (get64 slots (r lsl 3)))
      else if k = k_vec then VV (Array.copy vecs.(r))
      else VUnit
  | Ki i -> VI i
  | Kf f -> VF f

let unbox slots tags vecs d = function
  | VI i -> set_i slots tags d i
  | VF f -> set_f slots tags d f
  | VV lanes -> set_lanes tags vecs d lanes
  | VUnit -> Bytes.set tags d k_unit

let box_args slots tags vecs args =
  Array.of_list (List.map (box slots tags vecs) args)

let no_lanes : float array = [||]
let align_down n a = n / a * a

let rec call t fidx (args : value array) : value =
  if fidx < 0 || fidx >= t.nfuncs then
    raise (Trap (Printf.sprintf "call to unset function slot %d" fidx));
  let f = t.funcs.(fidx) in
  if Array.length f.Ir.code = 0 then
    raise (Trap (Printf.sprintf "call to undefined function '%s'" f.Ir.fname));
  if Array.length args <> f.nparams then
    raise
      (Trap
         (Printf.sprintf "function '%s' expects %d arguments, got %d"
            f.Ir.fname f.nparams (Array.length args)));
  let nregs = max 1 f.nregs in
  let slots = Bytes.create (8 * nregs) in
  let tags = Bytes.make nregs k_unit in
  let vecs = Array.make nregs no_lanes in
  Array.iteri (unbox slots tags vecs) args;
  let saved_sp = t.sp in
  t.sp <- align_down (t.sp - f.frame_bytes) 16;
  if t.sp < Mem.heap_limit t.mem then begin
    t.sp <- saved_sp;
    raise (Trap "stack overflow")
  end;
  if t.depth >= t.max_depth then begin
    t.sp <- saved_sp;
    raise (Trap (Printf.sprintf "stack overflow (call depth exceeds %d)" t.max_depth))
  end;
  t.depth <- t.depth + 1;
  let probe = t.probe in
  let pushed =
    if probe.Tprof.Probe.active then
      Tprof.Probe.enter probe ~id:fidx ~name:f.Ir.fname
    else false
  in
  let frame = t.sp in
  let m = t.machine in
  let cost = m.Machine.cost in
  let mem = t.mem in
  let code = f.code in
  let leave () =
    t.sp <- saved_sp;
    t.depth <- t.depth - 1;
    if pushed || probe.Tprof.Probe.active then
      Tprof.Probe.leave probe ~id:fidx ~pushed
  in
  let pc = ref 0 and running = ref true and result = ref VUnit in
  match
    while !running do
      (* per-instruction accounting: fuel, steps, profile tick, faults *)
      if t.fuel <= 0 then raise (Trap "fuel exhausted");
      t.fuel <- t.fuel - 1;
      t.steps <- t.steps + 1;
      if probe.Tprof.Probe.active then Tprof.Probe.retire probe;
      (match t.faults with
      | Some f when t.steps >= Fault.next_step f -> (
          try Fault.fire_step f mem t.steps
          with Fault.Injected (spec, _) as e ->
            if probe.Tprof.Probe.active then
              Tprof.Probe.fault probe (Fault.code spec);
            raise e)
      | _ -> ());
      (match code.(!pc) with
      | Mov (d, a) -> (
          (* no issue cost: register moves are eliminated by renaming *)
          match a with
          | R r ->
              let k = Bytes.get tags r in
              if k = k_vec then set_lanes tags vecs d vecs.(r)
              else begin
                Bytes.set tags d k;
                set64 slots (d lsl 3) (get64 slots (r lsl 3))
              end
          | Ki i -> set_i slots tags d i
          | Kf x -> set_f slots tags d x)
      | Ibin (op, d, a, b) ->
          Cost.count cost Cost.Int_alu;
          (* binary ops check the second operand first: with two
             ill-typed operands, the trap names the second *)
          let y = read_i slots tags b in
          let x = read_i slots tags a in
          (* a typed [let] keeps the result unboxed: passed straight to
             [set_i], the division branches would make it box *)
          let r = raw_ibin op x y in
          set_i slots tags d r
      | Fbin (fk, op, d, a, b) ->
          Cost.count cost
            (match op with
            | FMul -> Cost.Fp_mul
            | FDiv -> Cost.Fp_div
            | _ -> Cost.Fp_add);
          let y = read_f slots tags b in
          let x = read_f slots tags a in
          if is_fcmp op then set_i slots tags d (of_bool (raw_fcmp op x y))
          else set_f slots tags d (raw_fbin fk op x y)
      | Iun (op, d, a) ->
          Cost.count cost Cost.Int_alu;
          let x = read_i slots tags a in
          set_i slots tags d
            (match op with
            | INeg -> Int64.neg x
            | IBnot -> Int64.lognot x
            | ILnot -> of_bool (x = 0L))
      | Fun (fk, op, d, a) ->
          Cost.count cost
            (match op with FSqrt -> Cost.Fp_div | _ -> Cost.Fp_add);
          set_f slots tags d (eval_funop fk op (read_f slots tags a))
      | Lea (d, base, idx, scale, disp) ->
          Cost.count cost Cost.Addr;
          let b = read_i slots tags base in
          let i = read_i slots tags idx in
          set_i slots tags d
            Int64.(add (add b (mul i (of_int scale))) (of_int disp))
      | Load (mty, d, a) -> (
          let addr = Int64.to_int (read_i slots tags a) in
          Machine.load m addr (Ir.mty_bytes mty);
          match mty with
          | I8 -> set_i slots tags d (Int64.of_int (Mem.get_i8 mem addr))
          | U8 -> set_i slots tags d (Int64.of_int (Mem.get_u8 mem addr))
          | I16 -> set_i slots tags d (Int64.of_int (Mem.get_i16 mem addr))
          | U16 -> set_i slots tags d (Int64.of_int (Mem.get_u16 mem addr))
          | I32 -> set_i slots tags d (Int64.of_int32 (Mem.get_i32 mem addr))
          | U32 ->
              set_i slots tags d
                (Int64.logand (Int64.of_int32 (Mem.get_i32 mem addr)) 0xffffffffL)
          | I64 -> set_i slots tags d (Mem.get_i64 mem addr)
          | F32 -> set_f slots tags d (Mem.get_f32 mem addr)
          | F64 -> set_f slots tags d (Mem.get_f64 mem addr))
      | Store (mty, a, v) -> (
          let addr = Int64.to_int (read_i slots tags a) in
          Machine.store m addr (Ir.mty_bytes mty);
          match mty with
          | I8 | U8 ->
              Mem.set_u8 mem addr (Int64.to_int (read_i slots tags v) land 0xff)
          | I16 | U16 ->
              Mem.set_u16 mem addr (Int64.to_int (read_i slots tags v) land 0xffff)
          | I32 | U32 -> Mem.set_i32 mem addr (Int64.to_int32 (read_i slots tags v))
          | I64 -> Mem.set_i64 mem addr (read_i slots tags v)
          | F32 -> Mem.set_f32 mem addr (read_f slots tags v)
          | F64 -> Mem.set_f64 mem addr (read_f slots tags v))
      | Vload (fk, lanes, d, a) -> (
          let addr = Int64.to_int (read_i slots tags a) in
          let eb = Ir.fk_bytes fk in
          Machine.load m addr (lanes * eb);
          Cost.vec_width_event cost (lanes * eb * 8);
          let dst = vec_dest tags vecs d lanes in
          match fk with
          | Fk32 -> Mem.get_f32s mem addr dst
          | Fk64 -> Mem.get_f64s mem addr dst)
      | Vstore (fk, lanes, a, v) -> (
          let addr = Int64.to_int (read_i slots tags a) in
          let eb = Ir.fk_bytes fk in
          Machine.store m addr (lanes * eb);
          Cost.vec_width_event cost (lanes * eb * 8);
          let src = read_v tags vecs v in
          if Array.length src <> lanes then raise (Trap "vector store width mismatch");
          match fk with
          | Fk32 -> Mem.set_f32s mem addr src
          | Fk64 -> Mem.set_f64s mem addr src)
      | Vsplat (fk, lanes, d, a) ->
          Cost.vec_other cost ~bits:(lanes * Ir.fk_bytes fk * 8);
          let x = read_f slots tags a in
          let dst = vec_dest tags vecs d lanes in
          for i = 0 to lanes - 1 do
            Array.unsafe_set dst i x
          done
      | Vbin (fk, lanes, op, d, a, b) ->
          let bits = lanes * Ir.fk_bytes fk * 8 in
          (match op with
          | FMul -> Cost.vec_mul cost ~lanes ~bits
          | FDiv -> Cost.vec_div cost ~lanes ~bits
          | _ -> Cost.vec_add cost ~lanes ~bits);
          let lb = read_v tags vecs b in
          let la = read_v tags vecs a in
          let n = Array.length la in
          if Array.length lb < n then invalid_arg "index out of bounds";
          let dst = vec_dest tags vecs d n in
          for i = 0 to n - 1 do
            Array.unsafe_set dst i
              (raw_fbin fk op (Array.unsafe_get la i) (Array.unsafe_get lb i))
          done
      | Vun (fk, lanes, op, d, a) ->
          Cost.vec_other cost ~bits:(lanes * Ir.fk_bytes fk * 8);
          let la = read_v tags vecs a in
          let n = Array.length la in
          let dst = vec_dest tags vecs d n in
          for i = 0 to n - 1 do
            Array.unsafe_set dst i (eval_funop fk op (Array.unsafe_get la i))
          done
      | Vextract (d, a, i) ->
          Cost.count cost Cost.Other;
          let src = read_v tags vecs a in
          if i >= Array.length src then raise (Trap "vextract lane out of range");
          set_f slots tags d src.(i)
      | Cvt (ft, tt, d, a) ->
          Cost.count cost Cost.Int_alu;
          if Ir.mty_is_float ft then begin
            let x = read_f slots tags a in
            if Ir.mty_is_float tt then set_f slots tags d (cvt_to_float tt x)
            else set_i slots tags d (cvt_to_int tt (Int64.of_float x))
          end
          else begin
            let x = read_i slots tags a in
            if Ir.mty_is_float tt then
              set_f slots tags d (cvt_to_float tt (Int64.to_float x))
            else set_i slots tags d (cvt_to_int tt x)
          end
      | Call (d, fid, cargs) -> (
          Cost.count cost Cost.Call;
          let r = call t fid (box_args slots tags vecs cargs) in
          match d with Some dr -> unbox slots tags vecs dr r | None -> ())
      | Callind (d, faddr, cargs) -> (
          Cost.count cost Cost.Indirect_call;
          let a = Int64.to_int (read_i slots tags faddr) in
          let fid =
            match Ir.func_of_addr a with
            | Some id when id < t.nfuncs -> id
            | _ -> raise (Trap (Printf.sprintf "indirect call to bad address %#x" a))
          in
          let r = call t fid (box_args slots tags vecs cargs) in
          match d with Some dr -> unbox slots tags vecs dr r | None -> ())
      | Ccall (d, imp, cargs) -> (
          Cost.count cost Cost.Call;
          let name = t.imports.(imp) in
          let fn =
            match Hashtbl.find_opt t.builtins name with
            | Some fn -> fn
            | None -> raise (Trap ("unresolved C import: " ^ name))
          in
          let r = fn t (box_args slots tags vecs cargs) in
          match d with Some dr -> unbox slots tags vecs dr r | None -> ())
      | Prefetch a ->
          Cost.count cost Cost.Other;
          Machine.prefetch m (Int64.to_int (read_i slots tags a))
      | FrameAddr (d, off) ->
          Cost.count cost Cost.Addr;
          set_i slots tags d (Int64.of_int (frame + off))
      | SpillTouch off ->
          (* a spill reload: one load uop hitting the stack's L1 lines *)
          Machine.load m (frame + off) 8
      | Jmp l ->
          Cost.count cost Cost.Branch;
          if probe.Tprof.Probe.active then Tprof.Probe.branch probe;
          pc := l - 1
      | Br (c, lt, lf) ->
          Cost.count cost Cost.Branch;
          if probe.Tprof.Probe.active then Tprof.Probe.branch probe;
          pc := (if read_i slots tags c <> 0L then lt else lf) - 1
      | Ret None -> running := false
      | Ret (Some a) ->
          result := box slots tags vecs a;
          running := false);
      incr pc
    done
  with
  | () ->
      leave ();
      !result
  | exception e ->
      leave ();
      raise e

let set_fuel t n =
  t.fuel <- n;
  t.fuel_limit <- n;
  t.fuel_mark <- t.steps

(** Instructions retired since the last {!set_fuel}.  Derived from the
    single [steps] counter (the same one Tprof's virtual clock and fault
    injection observe) so `--report-fuel`, the supervise fuel watchdog,
    and profile totals can never drift apart.  Since [fuel] decrements
    exactly once per retired instruction this equals the historical
    [fuel_limit - fuel] on every path that does not reset fuel mid-run. *)
let fuel_used t = t.steps - t.fuel_mark

let set_max_depth t n = t.max_depth <- n
