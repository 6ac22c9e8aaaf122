(** Register-based typed IR — the compile target substituting for LLVM.

    Registers are untyped slots holding a 64-bit integer, a float, or a
    short float vector; memory operations carry an explicit memory type.
    Control flow uses absolute instruction indices within a function. *)

type mty = I8 | U8 | I16 | U16 | I32 | U32 | I64 | F32 | F64

let mty_bytes = function
  | I8 | U8 -> 1
  | I16 | U16 -> 2
  | I32 | U32 -> 4
  | I64 -> 8
  | F32 -> 4
  | F64 -> 8

let mty_is_float = function F32 | F64 -> true | _ -> false

type fk = Fk32 | Fk64

let fk_bytes = function Fk32 -> 4 | Fk64 -> 8

type ibin =
  | Add | Sub | Mul | Divs | Divu | Rems | Remu
  | Band | Bor | Bxor | Shl | Shrs | Shru
  | Eq | Ne | Lts | Les | Gts | Ges | Ltu | Leu | Gtu | Geu
  | Mins | Maxs

type fbin =
  | FAdd | FSub | FMul | FDiv | FMin | FMax
  | FEq | FNe | FLt | FLe | FGt | FGe

type iun = INeg | IBnot | ILnot
type fun_ = FNeg | FAbs | FSqrt

type reg = int
type operand = R of reg | Ki of int64 | Kf of float

type instr =
  | Mov of reg * operand
  | Ibin of ibin * reg * operand * operand
  | Fbin of fk * fbin * reg * operand * operand
  | Iun of iun * reg * operand
  | Fun of fk * fun_ * reg * operand
  | Lea of reg * operand * operand * int * int
      (** [Lea (d, base, index, scale, disp)]: d := base + index*scale + disp,
          charged as foldable address arithmetic. *)
  | Load of mty * reg * operand
  | Store of mty * operand * operand  (** addr, value *)
  | Vload of fk * int * reg * operand
  | Vstore of fk * int * operand * operand
  | Vsplat of fk * int * reg * operand
  | Vbin of fk * int * fbin * reg * operand * operand
  | Vun of fk * int * fun_ * reg * operand
  | Vextract of reg * operand * int
  | Cvt of mty * mty * reg * operand  (** from, to *)
  | Call of reg option * int * operand list
  | Callind of reg option * operand * operand list
  | Ccall of reg option * int * operand list  (** builtin import index *)
  | Prefetch of operand
  | FrameAddr of reg * int  (** d := sp + offset *)
  | SpillTouch of int  (** cost-only spill-slot access at frame offset *)
  | Jmp of int
  | Br of operand * int * int  (** cond, then-pc, else-pc *)
  | Ret of operand option

type func = {
  fname : string;
  nparams : int;  (** parameters arrive in registers 0..nparams-1 *)
  nregs : int;
  frame_bytes : int;
  code : instr array;
}

type static_init = { si_addr : int; si_data : string }

type modul = {
  funcs : func array;
  imports : string array;
  statics : static_init list;
}

(** Function "addresses" live far above the memory map so stored function
    pointers (vtables) are distinguishable from data pointers. *)
let func_addr_base = 0x4000_0000

let func_addr i = func_addr_base + (i * 16)

let func_of_addr a =
  if a < func_addr_base || (a - func_addr_base) mod 16 <> 0 then None
  else Some ((a - func_addr_base) / 16)

(* ------------------------------------------------------------------ *)
(* Instruction shape: the one place that knows which register an
   instruction writes and which operands it reads.  The optimizer, the
   spill model, the loaders' validator and the object linker all walk
   instructions through these. *)

(** The register an instruction writes, or [-1] when it writes none:
    {!def} without the option, for the optimizer's per-instruction walks
    over compiler output.  IR read from disk goes through {!def}, which
    also reports a (hostile) negative destination. *)
let def_reg = function
  | Mov (d, _)
  | Ibin (_, d, _, _)
  | Fbin (_, _, d, _, _)
  | Iun (_, d, _)
  | Fun (_, _, d, _)
  | Lea (d, _, _, _, _)
  | Load (_, d, _)
  | Vload (_, _, d, _)
  | Vsplat (_, _, d, _)
  | Vbin (_, _, _, d, _, _)
  | Vun (_, _, _, d, _)
  | Vextract (d, _, _)
  | Cvt (_, _, d, _)
  | FrameAddr (d, _)
  | Call (Some d, _, _)
  | Callind (Some d, _, _)
  | Ccall (Some d, _, _) ->
      d
  | Call (None, _, _) | Callind (None, _, _) | Ccall (None, _, _) | Store _
  | Vstore _ | Prefetch _ | SpillTouch _ | Jmp _ | Br _ | Ret _ ->
      -1

let def = function
  | Call (d, _, _) | Callind (d, _, _) | Ccall (d, _, _) -> d
  | Store _ | Vstore _ | Prefetch _ | SpillTouch _ | Jmp _ | Br _ | Ret _ ->
      None
  | ins -> Some (def_reg ins)

(** Apply [f] to each operand an instruction reads, in order, without
    building a list: the optimizer's analyses walk every instruction
    through this. *)
let iter_uses f = function
  | Mov (_, a)
  | Iun (_, _, a)
  | Fun (_, _, _, a)
  | Load (_, _, a)
  | Vload (_, _, _, a)
  | Vsplat (_, _, _, a)
  | Vun (_, _, _, _, a)
  | Vextract (_, a, _)
  | Cvt (_, _, _, a)
  | Prefetch a
  | Br (a, _, _)
  | Ret (Some a) ->
      f a
  | Ibin (_, _, a, b)
  | Fbin (_, _, _, a, b)
  | Lea (_, a, b, _, _)
  | Store (_, a, b)
  | Vstore (_, _, a, b)
  | Vbin (_, _, _, _, a, b) ->
      f a;
      f b
  | Call (_, _, args) | Ccall (_, _, args) -> List.iter f args
  | Callind (_, fn, args) ->
      f fn;
      List.iter f args
  | FrameAddr _ | SpillTouch _ | Jmp _ | Ret None -> ()

let uses ins =
  let acc = ref [] in
  iter_uses (fun a -> acc := a :: !acc) ins;
  List.rev !acc

let reg_uses ins =
  let acc = ref [] in
  iter_uses (function R r -> acc := r :: !acc | Ki _ | Kf _ -> ()) ins;
  List.rev !acc

(** Rewrite the operands an instruction reads (not its destination).
    When [f] returns every operand physically unchanged, so is the
    result: the optimizer maps every instruction and rewrites few. *)
let map_uses f ins =
  let list args =
    let args' = List.map f args in
    if List.for_all2 ( == ) args args' then args else args'
  in
  match ins with
  | Mov (d, a) ->
      let a' = f a in
      if a' == a then ins else Mov (d, a')
  | Ibin (op, d, a, b) ->
      let a' = f a and b' = f b in
      if a' == a && b' == b then ins else Ibin (op, d, a', b')
  | Fbin (fk, op, d, a, b) ->
      let a' = f a and b' = f b in
      if a' == a && b' == b then ins else Fbin (fk, op, d, a', b')
  | Iun (op, d, a) ->
      let a' = f a in
      if a' == a then ins else Iun (op, d, a')
  | Fun (fk, op, d, a) ->
      let a' = f a in
      if a' == a then ins else Fun (fk, op, d, a')
  | Lea (d, a, b, s, o) ->
      let a' = f a and b' = f b in
      if a' == a && b' == b then ins else Lea (d, a', b', s, o)
  | Load (m, d, a) ->
      let a' = f a in
      if a' == a then ins else Load (m, d, a')
  | Store (m, a, v) ->
      let a' = f a and v' = f v in
      if a' == a && v' == v then ins else Store (m, a', v')
  | Vload (fk, l, d, a) ->
      let a' = f a in
      if a' == a then ins else Vload (fk, l, d, a')
  | Vstore (fk, l, a, v) ->
      let a' = f a and v' = f v in
      if a' == a && v' == v then ins else Vstore (fk, l, a', v')
  | Vsplat (fk, l, d, a) ->
      let a' = f a in
      if a' == a then ins else Vsplat (fk, l, d, a')
  | Vbin (fk, l, op, d, a, b) ->
      let a' = f a and b' = f b in
      if a' == a && b' == b then ins else Vbin (fk, l, op, d, a', b')
  | Vun (fk, l, op, d, a) ->
      let a' = f a in
      if a' == a then ins else Vun (fk, l, op, d, a')
  | Vextract (d, a, i) ->
      let a' = f a in
      if a' == a then ins else Vextract (d, a', i)
  | Cvt (ft, tt, d, a) ->
      let a' = f a in
      if a' == a then ins else Cvt (ft, tt, d, a')
  | Call (d, fi, args) ->
      let args' = list args in
      if args' == args then ins else Call (d, fi, args')
  | Callind (d, fn, args) ->
      let fn' = f fn and args' = list args in
      if fn' == fn && args' == args then ins else Callind (d, fn', args')
  | Ccall (d, i, args) ->
      let args' = list args in
      if args' == args then ins else Ccall (d, i, args')
  | Prefetch a ->
      let a' = f a in
      if a' == a then ins else Prefetch a'
  | FrameAddr _ | SpillTouch _ | Jmp _ | Ret None -> ins
  | Br (c, a, b) ->
      let c' = f c in
      if c' == c then ins else Br (c', a, b)
  | Ret (Some a) ->
      let a' = f a in
      if a' == a then ins else Ret (Some a')

(** Whether the operands an instruction reads can hold a function address:
    moves, stores, call arguments and indirect-call targets, returns and
    (in)equality tests.  Arithmetic, memory addresses and branch
    conditions never do, so the object linker leaves their integer
    literals alone even when one looks like [func_addr k]. *)
let carries_func_addr = function
  | Mov _ | Store _ | Call _ | Callind _ | Ccall _ | Ret _
  | Ibin ((Eq | Ne), _, _, _) ->
      true
  | _ -> false

(** Structural validation of one function read from disk (a compile-cache
    entry or an object file).  A framing digest rules out accidental
    corruption; this rules out hostile or buggy well-formed input whose
    indices would otherwise reach the VM's unchecked dispatch: register
    numbers, jump targets, vector widths and lanes, call targets below
    [nfuncs] and imports below [nimports].  The interpreter falls off
    the end of a body whose last instruction is not a terminator, so one
    is required. *)
let validate ~nfuncs ~nimports f : (unit, string) result =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let len = Array.length f.code in
  let reg pc r =
    if r < 0 || r >= f.nregs then bad "pc %d: register r%d out of range" pc r
  in
  let target pc l =
    if l < 0 || l >= len then bad "pc %d: jump target %d out of range" pc l
  in
  try
    if f.nparams < 0 || f.nregs < f.nparams then
      bad "bad register counts (%d params, %d regs)" f.nparams f.nregs;
    if f.frame_bytes < 0 || f.frame_bytes > 8 * (1 lsl 20) then
      bad "implausible frame size %d" f.frame_bytes;
    if len = 0 then bad "empty body";
    Array.iteri
      (fun pc ins ->
        (match ins with
        | Vload (_, l, _, _)
        | Vstore (_, l, _, _)
        | Vsplat (_, l, _, _)
        | Vbin (_, l, _, _, _, _)
        | Vun (_, l, _, _, _)
          when l < 1 || l > 16 ->
            bad "pc %d: bad vector width %d" pc l
        | _ -> ());
        Option.iter (reg pc) (def ins);
        List.iter (reg pc) (reg_uses ins);
        match ins with
        | Vextract (_, _, i) when i < 0 || i >= 16 ->
            bad "pc %d: bad vector lane %d" pc i
        | Call (_, t, _) when t < 0 || t >= nfuncs ->
            bad "pc %d: call target %d out of range" pc t
        | Ccall (_, i, _) when i < 0 || i >= nimports ->
            bad "pc %d: import %d out of range" pc i
        | Jmp l -> target pc l
        | Br (_, a, b) ->
            target pc a;
            target pc b
        | _ -> ())
      f.code;
    (match f.code.(len - 1) with
    | Ret _ | Jmp _ | Br _ -> ()
    | _ -> bad "body does not end in a terminator");
    Ok ()
  with Bad msg -> Error msg

let pp_operand ppf = function
  | R r -> Format.fprintf ppf "r%d" r
  | Ki i -> Format.fprintf ppf "%Ld" i
  | Kf f -> Format.fprintf ppf "%g" f

let ibin_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Divs -> "divs"
  | Divu -> "divu" | Rems -> "rems" | Remu -> "remu" | Band -> "and"
  | Bor -> "or" | Bxor -> "xor" | Shl -> "shl" | Shrs -> "shrs"
  | Shru -> "shru" | Eq -> "eq" | Ne -> "ne" | Lts -> "lts" | Les -> "les"
  | Gts -> "gts" | Ges -> "ges" | Ltu -> "ltu" | Leu -> "leu" | Gtu -> "gtu"
  | Geu -> "geu" | Mins -> "min" | Maxs -> "max"

let fbin_name = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
  | FMin -> "fmin" | FMax -> "fmax" | FEq -> "feq" | FNe -> "fne"
  | FLt -> "flt" | FLe -> "fle" | FGt -> "fgt" | FGe -> "fge"

let mty_name = function
  | I8 -> "i8" | U8 -> "u8" | I16 -> "i16" | U16 -> "u16" | I32 -> "i32"
  | U32 -> "u32" | I64 -> "i64" | F32 -> "f32" | F64 -> "f64"

let pp_instr ppf = function
  | Mov (d, a) -> Format.fprintf ppf "r%d := %a" d pp_operand a
  | Ibin (op, d, a, b) ->
      Format.fprintf ppf "r%d := %s %a %a" d (ibin_name op) pp_operand a
        pp_operand b
  | Fbin (_, op, d, a, b) ->
      Format.fprintf ppf "r%d := %s %a %a" d (fbin_name op) pp_operand a
        pp_operand b
  | Iun (_, d, a) -> Format.fprintf ppf "r%d := iun %a" d pp_operand a
  | Fun (_, _, d, a) -> Format.fprintf ppf "r%d := fun %a" d pp_operand a
  | Lea (d, b, i, s, o) ->
      Format.fprintf ppf "r%d := lea %a + %a*%d + %d" d pp_operand b
        pp_operand i s o
  | Load (m, d, a) ->
      Format.fprintf ppf "r%d := load.%s [%a]" d (mty_name m) pp_operand a
  | Store (m, a, v) ->
      Format.fprintf ppf "store.%s [%a] %a" (mty_name m) pp_operand a
        pp_operand v
  | Vload (_, l, d, a) ->
      Format.fprintf ppf "r%d := vload.%d [%a]" d l pp_operand a
  | Vstore (_, l, a, v) ->
      Format.fprintf ppf "vstore.%d [%a] %a" l pp_operand a pp_operand v
  | Vsplat (_, l, d, a) ->
      Format.fprintf ppf "r%d := vsplat.%d %a" d l pp_operand a
  | Vbin (_, l, op, d, a, b) ->
      Format.fprintf ppf "r%d := v%s.%d %a %a" d (fbin_name op) l pp_operand a
        pp_operand b
  | Vun (_, l, _, d, a) ->
      Format.fprintf ppf "r%d := vun.%d %a" d l pp_operand a
  | Vextract (d, a, i) ->
      Format.fprintf ppf "r%d := vextract %a [%d]" d pp_operand a i
  | Cvt (f, t, d, a) ->
      Format.fprintf ppf "r%d := cvt.%s->%s %a" d (mty_name f) (mty_name t)
        pp_operand a
  | Call (d, f, args) ->
      Format.fprintf ppf "%s := call f%d(%a)"
        (match d with Some r -> Printf.sprintf "r%d" r | None -> "_")
        f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_operand)
        args
  | Callind (_, f, _) -> Format.fprintf ppf "callind %a" pp_operand f
  | Ccall (_, i, _) -> Format.fprintf ppf "ccall import%d" i
  | Prefetch a -> Format.fprintf ppf "prefetch [%a]" pp_operand a
  | FrameAddr (d, o) -> Format.fprintf ppf "r%d := sp + %d" d o
  | SpillTouch o -> Format.fprintf ppf "spilltouch %d" o
  | Jmp l -> Format.fprintf ppf "jmp %d" l
  | Br (c, a, b) -> Format.fprintf ppf "br %a %d %d" pp_operand c a b
  | Ret None -> Format.fprintf ppf "ret"
  | Ret (Some a) -> Format.fprintf ppf "ret %a" pp_operand a

let pp_func ppf f =
  Format.fprintf ppf "@[<v>func %s(%d params, %d regs, frame %d):@," f.fname
    f.nparams f.nregs f.frame_bytes;
  Array.iteri
    (fun i ins -> Format.fprintf ppf "  %3d: %a@," i pp_instr ins)
    f.code;
  Format.fprintf ppf "@]"
