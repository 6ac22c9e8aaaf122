(** Lowering typed Terra to {!Tvm.Ir}: register allocation by storage
    class, struct addressing from finalized layouts, stack frames for
    aggregates and address-taken locals, and register-pressure spill
    modeling for vector registers (the mechanism behind the paper's
    "register spill in Terra's generated code" for DGEMM). *)

open Tast
module Ir = Tvm.Ir

exception Compile_error of string

let comp_error fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let () =
  Diag.register_converter (function
    | Compile_error msg ->
        Some (Diag.make ~phase:Diag.Compile ~code:"compile.error" msg)
    | _ -> None)

type pinstr =
  | P of Ir.instr
  | PJmp of int
  | PBr of Ir.operand * int * int
  | PLabel of int

type storage =
  | SReg of Ir.reg  (** scalar or vector kept in a register *)
  | SFrame of int  (** frame offset; aggregates and address-taken scalars *)
  | SParamAggr of Ir.reg  (** aggregate param: register holds its address *)

type emitter = {
  ctx : Context.t;
  mutable pis : pinstr list;  (** reversed *)
  mutable nregs : int;
  mutable frame : int;
  mutable nlabels : int;
  mutable breaks : int list;  (** stack of break labels *)
  storage : (int, storage * Types.t) Hashtbl.t;
  mutable named_vec : Ir.reg list;  (** vector-typed locals, reverse order *)
  fname : string;
  ret_ty : Types.t;
}

let emit em pi = em.pis <- pi :: em.pis
let ins em i = emit em (P i)

let newreg em =
  let r = em.nregs in
  em.nregs <- r + 1;
  r

let newlabel em =
  let l = em.nlabels in
  em.nlabels <- l + 1;
  l

let alloca em ~align n =
  let off = Types.align_up em.frame align in
  em.frame <- off + n;
  off

let is_aggregate ty =
  match ty with Types.Tstruct _ | Types.Tarray _ -> true | _ -> false

let import em name = Tvm.Vm.import em.ctx.Context.vm name

(* ------------------------------------------------------------------ *)
(* Storage assignment pre-pass: find syms whose address is taken. *)

let rec addr_taken_expr acc (e : texpr) =
  (match e.desc with
  | Taddr { desc = Tvar s; _ } -> Hashtbl.replace acc s.symid ()
  | _ -> ());
  iter_subexprs (addr_taken_expr acc) e

and iter_subexprs f (e : texpr) =
  match e.desc with
  | Tlit _ | Tvar _ | Tglobaladdr _ | Tfuncval _ -> ()
  | Tbin (_, a, b) ->
      f a;
      f b
  | Tun (_, a) | Tderef a | Taddr a | Tcast (_, a) | Tvecsplat a -> f a
  | Tcall (_, args) | Tccall (_, args) | Tconstruct args -> List.iter f args
  | Tcallptr (c, args) ->
      f c;
      List.iter f args
  | Tfield (b, _, _, _) -> f b
  | Tindex (b, i) ->
      f b;
      f i

let rec addr_taken_stat acc (s : tstat) =
  let fe = addr_taken_expr acc in
  match s with
  | TSdef (_, inits) -> List.iter fe inits
  | TSassign (l, r) ->
      List.iter fe l;
      List.iter fe r
  | TSif (arms, els) ->
      List.iter
        (fun (c, b) ->
          fe c;
          List.iter (addr_taken_stat acc) b)
        arms;
      List.iter (addr_taken_stat acc) els
  | TSwhile (c, b) ->
      fe c;
      List.iter (addr_taken_stat acc) b
  | TSrepeat (b, c) ->
      List.iter (addr_taken_stat acc) b;
      fe c
  | TSfor (_, _, lo, hi, st, b) ->
      fe lo;
      fe hi;
      Option.iter fe st;
      List.iter (addr_taken_stat acc) b
  | TSblock b -> List.iter (addr_taken_stat acc) b
  | TSreturn e -> Option.iter fe e
  | TSbreak -> ()
  | TSexpr e -> fe e

(* ------------------------------------------------------------------ *)
(* Scalar operation selection *)

let fk_of_vec ty =
  match ty with
  | Types.Tvector (e, n) -> (Types.fk_of e, n)
  | _ -> comp_error "expected vector type"

let signed = function Types.Tint (_, s) -> s | _ -> true

let int_binop op sg : Ir.ibin =
  match (op, sg) with
  | "+", _ -> Ir.Add
  | "-", _ -> Ir.Sub
  | "*", _ -> Ir.Mul
  | "/", true -> Ir.Divs
  | "/", false -> Ir.Divu
  | "%", true -> Ir.Rems
  | "%", false -> Ir.Remu
  | "==", _ -> Ir.Eq
  | "~=", _ -> Ir.Ne
  | "<", true -> Ir.Lts
  | "<", false -> Ir.Ltu
  | "<=", true -> Ir.Les
  | "<=", false -> Ir.Leu
  | ">", true -> Ir.Gts
  | ">", false -> Ir.Gtu
  | ">=", true -> Ir.Ges
  | ">=", false -> Ir.Geu
  | "and", _ -> Ir.Band
  | "or", _ -> Ir.Bor
  | "min", _ -> Ir.Mins
  | "max", _ -> Ir.Maxs
  | "<<", _ -> Ir.Shl
  | ">>", true -> Ir.Shrs
  | ">>", false -> Ir.Shru
  | op, _ -> comp_error "unknown integer operator %s" op

let float_binop op : Ir.fbin =
  match op with
  | "+" -> Ir.FAdd
  | "-" -> Ir.FSub
  | "*" -> Ir.FMul
  | "/" -> Ir.FDiv
  | "min" -> Ir.FMin
  | "max" -> Ir.FMax
  | "==" -> Ir.FEq
  | "~=" -> Ir.FNe
  | "<" -> Ir.FLt
  | "<=" -> Ir.FLe
  | ">" -> Ir.FGt
  | ">=" -> Ir.FGe
  | op -> comp_error "unknown float operator %s" op

(* ------------------------------------------------------------------ *)
(* Expressions *)

let pointee = function
  | Types.Tptr t -> t
  | t -> comp_error "expected pointer, got %s" (Types.to_string t)

let rec compile_expr em (e : texpr) : Ir.operand =
  match e.desc with
  | Tlit (Lint i) -> Ir.Ki i
  | Tlit (Lfloat (f, _)) -> Ir.Kf f
  | Tlit (Lbool b) -> Ir.Ki (if b then 1L else 0L)
  | Tlit (Lstring s) ->
      Ir.Ki (Int64.of_int (Context.intern_string em.ctx s))
  | Tlit Lnullptr -> Ir.Ki 0L
  | Tvar s -> (
      match Hashtbl.find_opt em.storage s.symid with
      | Some (SReg r, _) -> Ir.R r
      | Some (SFrame off, ty) ->
          if is_aggregate ty then frame_addr em off
          else load_from em ty (frame_addr em off)
      | Some (SParamAggr r, _) -> Ir.R r
      | None -> comp_error "%s: no storage for %s" em.fname s.symname)
  | Tglobaladdr a -> Ir.Ki (Int64.of_int a)
  | Tfuncval id -> Ir.Ki (Int64.of_int (Ir.func_addr id))
  | Tbin (op, a, b) -> compile_binop em e.ty op a b
  | Tun (op, a) -> compile_unop em e.ty op a
  | Tderef a ->
      let addr = compile_expr em a in
      if is_aggregate e.ty then addr else load_from em e.ty addr
  | Taddr lv -> compile_addr em lv
  | Tfield (_, _, _, _) | Tindex (_, _) ->
      let addr = compile_addr em e in
      if is_aggregate e.ty then addr else load_from em e.ty addr
  | Tcast (target, src) -> compile_cast em target src
  | Tvecsplat a ->
      let fk, lanes = fk_of_vec e.ty in
      let v = compile_expr em a in
      let d = newreg em in
      ins em (Ir.Vsplat (fk, lanes, d, v));
      Ir.R d
  | Tconstruct args -> compile_construct em e.ty args
  | Tcall (fid, args) -> compile_call em e.ty (`Direct fid) args
  | Tcallptr (c, args) ->
      let f = compile_expr em c in
      compile_call em e.ty (`Indirect f) args
  | Tccall ("__prefetch", [ a ]) ->
      let addr = compile_expr em a in
      ins em (Ir.Prefetch addr);
      Ir.Ki 0L
  | Tccall (name, args) -> compile_call em e.ty (`C name) args

and frame_addr em off =
  let d = newreg em in
  ins em (Ir.FrameAddr (d, off));
  Ir.R d

and load_from em ty addr =
  let d = newreg em in
  (match ty with
  | Types.Tvector (e, n) -> ins em (Ir.Vload (Types.fk_of e, n, d, addr))
  | ty -> ins em (Ir.Load (Types.mty_of ty, d, addr)));
  Ir.R d

and store_to em ty addr v =
  match ty with
  | Types.Tvector (e, n) -> ins em (Ir.Vstore (Types.fk_of e, n, addr, v))
  | ty -> ins em (Ir.Store (Types.mty_of ty, addr, v))

and compile_addr em (e : texpr) : Ir.operand =
  match e.desc with
  | Tvar s -> (
      match Hashtbl.find_opt em.storage s.symid with
      | Some (SFrame off, _) -> frame_addr em off
      | Some (SParamAggr r, _) -> Ir.R r
      | Some (SReg _, _) ->
          comp_error "%s: internal: address of register variable %s"
            em.fname s.symname
      | None -> comp_error "%s: no storage for %s" em.fname s.symname)
  | Tglobaladdr a -> Ir.Ki (Int64.of_int a)
  | Tderef a -> compile_expr em a
  | Tfield (base, _, off, via_ptr) ->
      let b = if via_ptr then compile_expr em base else compile_addr em base in
      let d = newreg em in
      ins em (Ir.Lea (d, b, Ir.Ki 0L, 0, off));
      Ir.R d
  | Tindex (base, idx) ->
      let elem_ty = e.ty in
      let b =
        match base.ty with
        | Types.Tptr _ -> compile_expr em base
        | Types.Tarray _ -> compile_addr em base
        | t -> comp_error "cannot index %s" (Types.to_string t)
      in
      let i = compile_expr em idx in
      let d = newreg em in
      ins em (Ir.Lea (d, b, i, Types.sizeof elem_ty, 0));
      Ir.R d
  | Tconstruct _ | Tcast _ -> compile_expr em e
  | _ -> comp_error "%s: expression is not addressable" em.fname

and compile_binop em ty op a b =
  match op with
  | "+p" | "-p" ->
      let pa = compile_expr em a in
      let ib = compile_expr em b in
      let scale = Types.sizeof (pointee a.ty) in
      let d = newreg em in
      let idx =
        if op = "+p" then ib
        else begin
          let n = newreg em in
          ins em (Ir.Iun (Ir.INeg, n, ib));
          Ir.R n
        end
      in
      ins em (Ir.Lea (d, pa, idx, scale, 0));
      Ir.R d
  | "-pp" ->
      let pa = compile_expr em a and pb = compile_expr em b in
      let diff = newreg em in
      ins em (Ir.Ibin (Ir.Sub, diff, pa, pb));
      let d = newreg em in
      ins em
        (Ir.Ibin
           (Ir.Divs, d, Ir.R diff, Ir.Ki (Int64.of_int (Types.sizeof (pointee a.ty)))));
      Ir.R d
  | op -> (
      let va = compile_expr em a and vb = compile_expr em b in
      let d = newreg em in
      match a.ty with
      | Types.Tvector (e, n) ->
          ins em (Ir.Vbin (Types.fk_of e, n, float_binop op, d, va, vb));
          Ir.R d
      | Types.Tfloat | Types.Tdouble ->
          ins em (Ir.Fbin (Types.fk_of a.ty, float_binop op, d, va, vb));
          Ir.R d
      | Types.Tptr _ ->
          ins em (Ir.Ibin (int_binop op false, d, va, vb));
          Ir.R d
      | _ ->
          ignore ty;
          ins em (Ir.Ibin (int_binop op (signed a.ty), d, va, vb));
          Ir.R d)

and compile_unop em ty op a =
  let v = compile_expr em a in
  let d = newreg em in
  (match (op, ty) with
  | "-", Types.Tvector (e, n) -> ins em (Ir.Vun (Types.fk_of e, n, Ir.FNeg, d, v))
  | "-", (Types.Tfloat | Types.Tdouble) ->
      ins em (Ir.Fun (Types.fk_of ty, Ir.FNeg, d, v))
  | "-", _ -> ins em (Ir.Iun (Ir.INeg, d, v))
  | "not", _ -> ins em (Ir.Iun (Ir.ILnot, d, v))
  | op, _ -> comp_error "unknown unary operator %s" op);
  Ir.R d

and compile_cast em target (src : texpr) =
  let sty = src.ty in
  if Types.equal sty target then compile_expr em src
  else
    match (sty, target) with
    | Types.Tarray _, Types.Tptr _ -> compile_addr em src
    | (Types.Tptr _ | Types.Tfunc _), (Types.Tptr _ | Types.Tfunc _ | Types.Tint (Types.W64, _))
    | Types.Tint (Types.W64, _), (Types.Tptr _ | Types.Tfunc _) ->
        compile_expr em src
    | Types.Tint _, Types.Tptr _ | Types.Tptr _, Types.Tint _ ->
        compile_expr em src
    | Types.Tbool, Types.Tint _ -> compile_expr em src
    | Types.Tint _, Types.Tbool ->
        let v = compile_expr em src in
        let d = newreg em in
        ins em (Ir.Ibin (Ir.Ne, d, v, Ir.Ki 0L));
        Ir.R d
    | Types.Tvector _, Types.Tvector _ -> compile_expr em src
    | a, b when Types.is_arithmetic a && Types.is_arithmetic b ->
        (* Constant-fold literal conversions so staged constants stay
           immediate operands. *)
        (match src.desc with
        | Tlit (Lint i) when Types.is_float b -> Ir.Kf (Int64.to_float i)
        | Tlit (Lint i) -> Ir.Ki i
        | Tlit (Lfloat (f, _)) when Types.is_float b -> Ir.Kf f
        | _ ->
            let v = compile_expr em src in
            let d = newreg em in
            ins em (Ir.Cvt (Types.mty_of a, Types.mty_of b, d, v));
            Ir.R d)
    | a, b ->
        comp_error "%s: unsupported cast %s -> %s" em.fname
          (Types.to_string a) (Types.to_string b)

and compile_construct em ty args =
  match ty with
  | Types.Tvector (e, n) ->
      let fk = Types.fk_of e in
      if args = [] then begin
        let d = newreg em in
        ins em (Ir.Vsplat (fk, n, d, Ir.Kf 0.0));
        Ir.R d
      end
      else begin
        (* assemble from scalars through a stack slot *)
        let off = alloca em ~align:(Types.sizeof e * n) (Types.sizeof e * n) in
        List.iteri
          (fun i a ->
            let v = compile_expr em a in
            let base = frame_addr em (off + (i * Types.sizeof e)) in
            store_to em e base v)
          args;
        load_from em ty (frame_addr em off)
      end
  | Types.Tstruct s ->
      let layout = Types.struct_layout s in
      let off = alloca em ~align:layout.Types.align layout.Types.size in
      if args = [] then begin
        let addr = frame_addr em off in
        let memset = import em "memset" in
        ins em
          (Ir.Ccall
             (None, memset, [ addr; Ir.Ki 0L; Ir.Ki (Int64.of_int layout.Types.size) ]))
      end
      else
        List.iter2
          (fun (_, fty, foff) a ->
            let v = compile_expr em a in
            let addr = frame_addr em (off + foff) in
            store_to em fty addr v)
          layout.Types.fields args;
      frame_addr em off
  | t -> comp_error "cannot construct %s" (Types.to_string t)

and compile_call em rty callee args =
  let cargs =
    List.map
      (fun (a : texpr) ->
        if is_aggregate a.ty then begin
          (* by-value aggregate: pass the address of a fresh copy *)
          let src = compile_expr em a in
          let size = Types.sizeof a.ty in
          let off = alloca em ~align:(Types.alignof a.ty) size in
          let dst = frame_addr em off in
          let memcpy = import em "memcpy" in
          ins em (Ir.Ccall (None, memcpy, [ dst; src; Ir.Ki (Int64.of_int size) ]));
          dst
        end
        else compile_expr em a)
      args
  in
  if is_aggregate rty then begin
    (* aggregate return: the caller provides the destination as a hidden
       first argument *)
    let size = max 1 (Types.sizeof rty) in
    let off = alloca em ~align:(Types.alignof rty) size in
    let ret_tmp = frame_addr em off in
    let cargs = ret_tmp :: cargs in
    (match callee with
    | `Direct fid -> ins em (Ir.Call (None, fid, cargs))
    | `Indirect f -> ins em (Ir.Callind (None, f, cargs))
    | `C name -> ins em (Ir.Ccall (None, import em name, cargs)));
    ret_tmp
  end
  else begin
    let dst = if Types.is_unit rty then None else Some (newreg em) in
    (match callee with
    | `Direct fid -> ins em (Ir.Call (dst, fid, cargs))
    | `Indirect f -> ins em (Ir.Callind (dst, f, cargs))
    | `C name -> ins em (Ir.Ccall (dst, import em name, cargs)));
    match dst with Some d -> Ir.R d | None -> Ir.Ki 0L
  end

(* ------------------------------------------------------------------ *)
(* Statements *)

let define_var em sym ty =
  if is_aggregate ty then begin
    let off = alloca em ~align:(Types.alignof ty) (max 1 (Types.sizeof ty)) in
    Hashtbl.replace em.storage sym.symid (SFrame off, ty)
  end
  else if Hashtbl.mem em.storage sym.symid then ()
  else begin
    let r = newreg em in
    if Types.is_vector ty then em.named_vec <- r :: em.named_vec;
    Hashtbl.replace em.storage sym.symid (SReg r, ty)
  end

(* Pre-marked address-taken scalars get frame slots instead of registers. *)
let define_var_addrable em addrset sym ty =
  if (not (is_aggregate ty)) && Hashtbl.mem addrset sym.symid then begin
    let size = max 1 (Types.sizeof ty) in
    let off = alloca em ~align:(Types.alignof ty) size in
    Hashtbl.replace em.storage sym.symid (SFrame off, ty)
  end
  else define_var em sym ty

let assign_to em (lhs : texpr) v =
  match lhs.desc with
  | Tvar s -> (
      match Hashtbl.find_opt em.storage s.symid with
      | Some (SReg r, _) -> ins em (Ir.Mov (r, v))
      | Some (SFrame off, ty) ->
          if is_aggregate ty then begin
            let dst = frame_addr em off in
            let memcpy = import em "memcpy" in
            ins em
              (Ir.Ccall (None, memcpy, [ dst; v; Ir.Ki (Int64.of_int (Types.sizeof ty)) ]))
          end
          else store_to em ty (frame_addr em off) v
      | Some (SParamAggr r, ty) ->
          let memcpy = import em "memcpy" in
          ins em
            (Ir.Ccall
               (None, memcpy, [ Ir.R r; v; Ir.Ki (Int64.of_int (Types.sizeof ty)) ]))
      | None -> comp_error "%s: no storage for %s" em.fname s.symname)
  | _ ->
      let addr = compile_addr em lhs in
      if is_aggregate lhs.ty then begin
        let memcpy = import em "memcpy" in
        ins em
          (Ir.Ccall
             (None, memcpy, [ addr; v; Ir.Ki (Int64.of_int (Types.sizeof lhs.ty)) ]))
      end
      else store_to em lhs.ty addr v

let materialize em v =
  match v with
  | Ir.R _ ->
      let d = newreg em in
      ins em (Ir.Mov (d, v));
      Ir.R d
  | v -> v

let rec compile_stat em addrset (s : tstat) =
  match s with
  | TSdef (vars, inits) ->
      let tinits = List.map (compile_expr em) inits in
      List.iteri
        (fun i (sym, ty) ->
          define_var_addrable em addrset sym ty;
          match List.nth_opt tinits i with
          | Some v ->
              if is_aggregate ty then begin
                match Hashtbl.find_opt em.storage sym.symid with
                | Some (SFrame off, _) ->
                    let dst = frame_addr em off in
                    let memcpy = import em "memcpy" in
                    ins em
                      (Ir.Ccall
                         ( None,
                           memcpy,
                           [ dst; v; Ir.Ki (Int64.of_int (Types.sizeof ty)) ] ))
                | _ -> assert false
              end
              else assign_to em { ty; desc = Tvar sym } v
          | None -> ())
        vars
  | TSassign ([ lhs ], [ rhs ]) ->
      let v = compile_expr em rhs in
      assign_to em lhs v
  | TSassign (lhs, rhs) ->
      (* all right-hand sides evaluate before any assignment *)
      let vs = List.map (fun r -> materialize em (compile_expr em r)) rhs in
      List.iter2 (fun l v -> assign_to em l v) lhs vs
  | TSif (arms, els) ->
      let lend = newlabel em in
      List.iter
        (fun (c, b) ->
          let lthen = newlabel em and lnext = newlabel em in
          let cv = compile_expr em c in
          emit em (PBr (cv, lthen, lnext));
          emit em (PLabel lthen);
          compile_block em addrset b;
          emit em (PJmp lend);
          emit em (PLabel lnext))
        arms;
      compile_block em addrset els;
      emit em (PLabel lend)
  | TSwhile (c, b) ->
      let lcond = newlabel em and lbody = newlabel em and lend = newlabel em in
      emit em (PLabel lcond);
      let cv = compile_expr em c in
      emit em (PBr (cv, lbody, lend));
      emit em (PLabel lbody);
      em.breaks <- lend :: em.breaks;
      compile_block em addrset b;
      em.breaks <- List.tl em.breaks;
      emit em (PJmp lcond);
      emit em (PLabel lend)
  | TSrepeat (b, c) ->
      let lbody = newlabel em and lend = newlabel em in
      emit em (PLabel lbody);
      em.breaks <- lend :: em.breaks;
      compile_block em addrset b;
      em.breaks <- List.tl em.breaks;
      let cv = compile_expr em c in
      emit em (PBr (cv, lend, lbody));
      emit em (PLabel lend)
  | TSfor (sym, ity, lo, hi, step, b) ->
      define_var_addrable em addrset sym ity;
      let ivar = { ty = ity; desc = Tvar sym } in
      let vlo = compile_expr em lo in
      assign_to em ivar vlo;
      let vhi = materialize em (compile_expr em hi) in
      let vstep =
        match step with
        | None -> Ir.Ki 1L
        | Some e -> materialize em (compile_expr em e)
      in
      let lcond = newlabel em and lbody = newlabel em and lend = newlabel em in
      emit em (PLabel lcond);
      let iv = compile_expr em ivar in
      let cond = newreg em in
      (match vstep with
      | Ir.Ki k when Int64.compare k 0L >= 0 ->
          ins em (Ir.Ibin ((if signed ity then Ir.Lts else Ir.Ltu), cond, iv, vhi))
      | Ir.Ki _ -> ins em (Ir.Ibin ((if signed ity then Ir.Gts else Ir.Gtu), cond, iv, vhi))
      | step ->
          (* variable step: pick the comparison at run time *)
          let pos = newreg em in
          ins em (Ir.Ibin (Ir.Gts, pos, step, Ir.Ki 0L));
          let lt = newreg em and gt = newreg em in
          ins em (Ir.Ibin ((if signed ity then Ir.Lts else Ir.Ltu), lt, iv, vhi));
          ins em (Ir.Ibin ((if signed ity then Ir.Gts else Ir.Gtu), gt, iv, vhi));
          let c1 = newreg em in
          ins em (Ir.Ibin (Ir.Band, c1, Ir.R pos, Ir.R lt));
          let npos = newreg em in
          ins em (Ir.Iun (Ir.ILnot, npos, Ir.R pos));
          let c2 = newreg em in
          ins em (Ir.Ibin (Ir.Band, c2, Ir.R npos, Ir.R gt));
          ins em (Ir.Ibin (Ir.Bor, cond, Ir.R c1, Ir.R c2)));
      emit em (PBr (Ir.R cond, lbody, lend));
      emit em (PLabel lbody);
      em.breaks <- lend :: em.breaks;
      compile_block em addrset b;
      em.breaks <- List.tl em.breaks;
      let iv2 = compile_expr em ivar in
      let next = newreg em in
      ins em (Ir.Ibin (Ir.Add, next, iv2, vstep));
      assign_to em ivar (Ir.R next);
      emit em (PJmp lcond);
      emit em (PLabel lend)
  | TSblock b -> compile_block em addrset b
  | TSreturn None -> ins em (Ir.Ret None)
  | TSreturn (Some e) ->
      if is_aggregate e.ty then begin
        (* copy into the caller-provided hidden destination (register 0) *)
        let src = compile_expr em e in
        let memcpy = import em "memcpy" in
        ins em
          (Ir.Ccall
             ( None,
               memcpy,
               [ Ir.R 0; src; Ir.Ki (Int64.of_int (Types.sizeof e.ty)) ] ));
        ins em (Ir.Ret None)
      end
      else begin
        let v = compile_expr em e in
        ins em (Ir.Ret (Some v))
      end
  | TSbreak -> (
      match em.breaks with
      | l :: _ -> emit em (PJmp l)
      | [] -> comp_error "%s: break outside a loop" em.fname)
  | TSexpr e -> ignore (compile_expr em e)

and compile_block em addrset b = List.iter (compile_stat em addrset) b

(* ------------------------------------------------------------------ *)
(* Vector-register spill modeling *)

(** Register-pressure model: named vector-typed locals are the values
    live across loop iterations; when they outnumber the machine's vector
    register file, the later-declared ones are spilled (accumulators are
    declared first and stay resident, matching how ATLAS-style kernels
    are allocated). Every instruction touching a spilled value is
    preceded by a cost-only reload from the stack. Temporaries have
    single-instruction live ranges and are assumed coalesced. *)
let spill_pass em (pis : pinstr list) : pinstr list * int =
  let named = List.rev em.named_vec in
  let limit =
    em.ctx.Context.machine.Tmachine.Machine.config.Tmachine.Config.vector_regs
  in
  let spilled = Hashtbl.create 8 in
  List.iteri
    (fun i r -> if i >= limit then Hashtbl.replace spilled r ())
    named;
  if Hashtbl.length spilled = 0 then (pis, 0)
  else begin
    let slot = alloca em ~align:32 32 in
    let out =
      List.concat_map
        (fun pi ->
          match pi with
          | P i ->
              let touches =
                List.exists
                  (fun r -> Hashtbl.mem spilled r)
                  (Option.to_list (Ir.def i) @ Ir.reg_uses i)
              in
              if touches then [ P (Ir.SpillTouch slot); pi ] else [ pi ]
          | pi -> [ pi ])
        pis
    in
    (out, Hashtbl.length spilled)
  end

(* ------------------------------------------------------------------ *)
(* Label fixup *)

let fixup (pis : pinstr list) : Ir.instr array =
  let positions = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun pi ->
      match pi with
      | PLabel l -> Hashtbl.replace positions l !idx
      | _ -> incr idx)
    pis;
  let target l =
    match Hashtbl.find_opt positions l with
    | Some i -> i
    | None -> comp_error "internal: unplaced label %d" l
  in
  let code = Array.make !idx (Ir.Ret None) in
  let i = ref 0 in
  List.iter
    (fun pi ->
      (match pi with
      | PLabel _ -> ()
      | P ins ->
          code.(!i) <- ins;
          incr i
      | PJmp l ->
          code.(!i) <- Ir.Jmp (target l);
          incr i
      | PBr (c, a, b) ->
          code.(!i) <- Ir.Br (c, target a, target b);
          incr i))
    pis;
  code

(* ------------------------------------------------------------------ *)

type result = { func : Ir.func; spilled_vector_regs : int }

(** Compile a typechecked function to IR. *)
let compile_func ?(no_spill = false) ctx ~name (typed : Func.typed) : result =
  let em =
    {
      ctx;
      pis = [];
      nregs = 0;
      frame = 0;
      nlabels = 0;
      breaks = [];
      storage = Hashtbl.create 32;
      named_vec = [];
      fname = name;
      ret_ty = typed.Func.tret;
    }
  in
  let addrset = Hashtbl.create 8 in
  List.iter (addr_taken_stat addrset) typed.Func.tbody;
  (* an aggregate return reserves register 0 for the hidden destination *)
  let hidden_ret = if is_aggregate typed.Func.tret then 1 else 0 in
  if hidden_ret = 1 then ignore (newreg em);
  (* parameters land in the following registers *)
  List.iter
    (fun (sym, ty) ->
      let r = newreg em in
      if is_aggregate ty then
        Hashtbl.replace em.storage sym.symid (SParamAggr r, ty)
      else if Hashtbl.mem addrset sym.symid then begin
        let off = alloca em ~align:(Types.alignof ty) (max 1 (Types.sizeof ty)) in
        Hashtbl.replace em.storage sym.symid (SFrame off, ty);
        let addr = frame_addr em off in
        store_to em ty addr (Ir.R r)
      end
      else Hashtbl.replace em.storage sym.symid (SReg r, ty))
    typed.Func.tparams;
  compile_block em addrset typed.Func.tbody;
  ins em (Ir.Ret None);
  let pis = List.rev em.pis in
  let pis, nspill = if no_spill then (pis, 0) else spill_pass em pis in
  let code = fixup pis in
  ignore em.ret_ty;
  {
    func =
      {
        Ir.fname = name;
        nparams = List.length typed.Func.tparams + hidden_ret;
        nregs = em.nregs;
        frame_bytes = Types.align_up em.frame 16;
        code;
      };
    spilled_vector_regs = nspill;
  }
