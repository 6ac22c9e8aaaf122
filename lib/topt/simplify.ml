(** Constant folding, copy propagation, and peephole rewrites.

    Two layers: a global single-def copy/constant propagation guarded by
    dominance, and a per-block walk that folds constant operations using
    the VM's own evaluators (so folded results are bit-identical to what
    the interpreter would compute, including float rounding), plus
    peepholes: Mov-chain folding, Lea-into-Lea merging for address
    arithmetic, strength reduction of multiply-by-power-of-two, and
    fusing an instruction's destination into an adjacent final Mov. *)

module Ir = Tvm.Ir
module Vm = Tvm.Vm

(* ------------------------------------------------------------------ *)
(* Global copy/constant propagation                                    *)
(* ------------------------------------------------------------------ *)

(** Propagate [Mov d, k] and [Mov d, R s] through the whole function when
    [d] is defined exactly once (and, for register copies, [s] is too and
    its definition strictly precedes [d]'s).  A use is rewritten only when
    the defining Mov dominates it.  The Movs themselves are left for DCE.
    [di] must describe the current code; its use counts are kept up to
    date through the rewrites. *)
let global_copyprop (cfg : Cfg.t) (di : Cfg.definfo) : int =
  let dom = lazy (Cfg.dominators cfg) in
  let dc = di.Cfg.def_counts and uc = di.Cfg.use_counts in
  let sb = di.Cfg.site_bid and si = di.Cfg.site_idx in
  (* strict "the single def of [r] executes before (bid, idx)" *)
  let before r bid idx =
    if sb.(r) = bid then si.(r) < idx
    else Cfg.dominates (Lazy.force dom) sb.(r) bid
  in
  let n = Array.length dc in
  let has_cand = Array.make n false in
  let cand = Array.make n (Ir.Ki 0L) in
  let any = ref false in
  let add d rhs =
    has_cand.(d) <- true;
    cand.(d) <- rhs;
    any := true
  in
  List.iter
    (fun b ->
      List.iter
        (fun ins ->
          match ins with
          | Ir.Mov (d, rhs) when dc.(d) = 1 -> (
              match rhs with
              | Ir.Ki _ | Ir.Kf _ -> add d rhs
              | Ir.R s
                when s <> d && dc.(s) = 1 && before s sb.(d) si.(d) ->
                  add d rhs
              | _ -> ())
          | _ -> ())
        b.Cfg.instrs)
    cfg.Cfg.blocks;
  (* resolve copy chains: d -> s -> t becomes d -> t *)
  let rec resolve fuel op =
    match op with
    | Ir.R r when fuel > 0 && has_cand.(r) -> resolve (fuel - 1) cand.(r)
    | _ -> op
  in
  let events = ref 0 in
  let rewrite_operand bid idx op =
    match op with
    | Ir.R r when r < n && has_cand.(r) && before r bid idx -> (
        match resolve 64 op with
        | Ir.R r' when r' = r -> op
        | op' ->
            incr events;
            uc.(r) <- uc.(r) - 1;
            (match op' with Ir.R s -> uc.(s) <- uc.(s) + 1 | _ -> ());
            op')
    | _ -> op
  in
  if !any then
    List.iter
      (fun b ->
        let bid = b.Cfg.bid in
        b.Cfg.instrs <-
          List.mapi
            (fun i ins -> Ir.map_uses (rewrite_operand bid i) ins)
            b.Cfg.instrs;
        match b.Cfg.term with
        | Cfg.Tbr (c, x, y) ->
            b.Cfg.term <- Cfg.Tbr (rewrite_operand bid max_int c, x, y)
        | Cfg.Tret (Some v) ->
            b.Cfg.term <- Cfg.Tret (Some (rewrite_operand bid max_int v))
        | _ -> ())
      cfg.Cfg.blocks;
  !events

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let value_of = function
  | Ir.Ki i -> Vm.VI i
  | Ir.Kf f -> Vm.VF f
  | Ir.R _ -> invalid_arg "value_of"

let operand_of = function
  | Vm.VI i -> Some (Ir.Ki i)
  | Vm.VF f -> Some (Ir.Kf f)
  | _ -> None

(** Evaluate a constant-operand instruction with the VM's own semantics.
    Anything that would trap (division by zero, type confusion) is left
    in place so runtime behaviour is unchanged. *)
let fold_instr (ins : Ir.instr) : Ir.operand option =
  match ins with
  | Ir.Ibin (op, _, Ki a, Ki b) -> (
      match Vm.eval_ibin op a b with
      | v -> operand_of v
      | exception Vm.Trap _ -> None)
  | Ir.Fbin (fk, op, _, Kf a, Kf b) -> (
      match Vm.eval_fbin fk op a b with
      | v -> operand_of v
      | exception Vm.Trap _ -> None)
  | Ir.Iun (op, _, Ki a) ->
      Some
        (Ir.Ki
           (match op with
           | Ir.INeg -> Int64.neg a
           | Ir.IBnot -> Int64.lognot a
           | Ir.ILnot -> if a = 0L then 1L else 0L))
  | Ir.Fun (fk, op, _, Kf a) -> Some (Ir.Kf (Vm.eval_funop fk op a))
  | Ir.Lea (_, Ki b, Ki i, s, o) ->
      Some
        (Ir.Ki
           Int64.(add (add b (mul i (of_int s))) (of_int o)))
  | Ir.Cvt (ft, tt, _, ((Ki _ | Kf _) as a)) -> (
      match Vm.eval_cvt ft tt (value_of a) with
      | v -> operand_of v
      | exception Vm.Trap _ -> None)
  | _ -> None

let is_pow2 k = Int64.logand k (Int64.sub k 1L) = 0L && k > 0L

let log2_64 k =
  let rec go i = if Int64.shift_left 1L i = k then i else go (i + 1) in
  go 0

(** Single-instruction rewrites that don't need context. *)
let peephole_instr (ins : Ir.instr) : Ir.instr option =
  match ins with
  | Ir.Ibin (Mul, d, a, Ki k) when is_pow2 k && k > 1L ->
      Some (Ir.Ibin (Shl, d, a, Ki (Int64.of_int (log2_64 k))))
  | Ir.Ibin (Mul, d, Ki k, a) when is_pow2 k && k > 1L ->
      Some (Ir.Ibin (Shl, d, a, Ki (Int64.of_int (log2_64 k))))
  | Ir.Ibin (Mul, d, a, Ki 1L) | Ir.Ibin (Mul, d, Ki 1L, a) ->
      Some (Ir.Mov (d, a))
  | Ir.Ibin (Add, d, a, Ki 0L) | Ir.Ibin (Add, d, Ki 0L, a) ->
      Some (Ir.Mov (d, a))
  | Ir.Ibin (Sub, d, a, Ki 0L) -> Some (Ir.Mov (d, a))
  | Ir.Ibin ((Shl | Shrs | Shru), d, a, Ki 0L) -> Some (Ir.Mov (d, a))
  | Ir.Ibin ((Bor | Bxor), d, a, Ki 0L) | Ir.Ibin ((Bor | Bxor), d, Ki 0L, a)
    ->
      Some (Ir.Mov (d, a))
  | Ir.Lea (d, a, Ki 0L, _, 0) | Ir.Lea (d, a, _, 0, 0) -> Some (Ir.Mov (d, a))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Local simplification                                                *)
(* ------------------------------------------------------------------ *)

type lea_parts = { lp_base : Ir.operand; lp_idx : Ir.operand; lp_scale : int; lp_disp : int }

let no_lea =
  { lp_base = Ir.Ki 0L; lp_idx = Ir.Ki 0L; lp_scale = 0; lp_disp = 0 }
let is_reg d = function Ir.R r -> r = d | Ir.Ki _ | Ir.Kf _ -> false

(* An index small enough to fold into a displacement: |i| < 2^28, so
   [Int64.to_int i * scale] cannot overflow.  Both bounds are explicit
   because [Int64.abs Int64.min_int] is negative. *)
let small_index i =
  Int64.compare i (-0x1000_0000L) > 0 && Int64.compare i 0x1000_0000L < 0

(** Per-block forward walk: propagate constants and copies through an
    environment killed on redefinition, fold instructions whose operands
    became constant, apply peepholes, and merge chained Lea address
    computations.

    The environment is a set of per-register arrays shared by all blocks
    and cleared through the list of registers a block touched.  A
    reverse index lists, for each register, the entries whose right-hand
    side reads it, so killing a register visits only those.  The counts
    in [di] are kept up to date for {!fuse_defs}. *)
let local_simplify (cfg : Cfg.t) (di : Cfg.definfo) : int =
  let events = ref 0 in
  let dc = di.Cfg.def_counts and uc = di.Cfg.use_counts in
  let n = Array.length dc in
  let const_on = Array.make n false in
  let const_of = Array.make n (Ir.Ki 0L) in
  let copy_of = Array.make n (-1) in
  let lea_on = Array.make n false in
  let lea_of = Array.make n no_lea in
  (* readers.(s): registers whose copy or Lea entry read [s]; entries
     may be stale and are checked when used *)
  let readers = Array.make n [] in
  let touched = ref [] in
  let touch r = touched := r :: !touched in
  let kill d =
    const_on.(d) <- false;
    copy_of.(d) <- -1;
    lea_on.(d) <- false;
    List.iter
      (fun k ->
        if copy_of.(k) = d then copy_of.(k) <- -1;
        if lea_on.(k) then begin
          let lp = lea_of.(k) in
          if is_reg d lp.lp_base || is_reg d lp.lp_idx then lea_on.(k) <- false
        end)
      readers.(d);
    readers.(d) <- []
  in
  let read_by k = function
    | Ir.R s ->
        readers.(s) <- k :: readers.(s);
        touch s
    | Ir.Ki _ | Ir.Kf _ -> ()
  in
  let subst op =
    match op with
    | Ir.R r when const_on.(r) ->
        incr events;
        uc.(r) <- uc.(r) - 1;
        const_of.(r)
    | Ir.R r when copy_of.(r) >= 0 ->
        incr events;
        let s = copy_of.(r) in
        uc.(r) <- uc.(r) - 1;
        uc.(s) <- uc.(s) + 1;
        Ir.R s
    | _ -> op
  in
  (* a rewrite that changes an instruction's operands moves its uses *)
  let unuse = function Ir.R r -> uc.(r) <- uc.(r) - 1 | _ -> () in
  let reuse = function Ir.R r -> uc.(r) <- uc.(r) + 1 | _ -> () in
  let recount before after =
    if before != after then begin
      Ir.iter_uses unuse before;
      Ir.iter_uses reuse after
    end
  in
  List.iter
    (fun b ->
      let out = ref [] in
      List.iter
        (fun ins ->
          let ins = Ir.map_uses subst ins in
          (* fold to a constant Mov if all operands are now constant *)
          let ins0 = ins in
          let ins =
            match fold_instr ins with
            | Some k -> (
                incr events;
                match Ir.def ins with
                | Some d -> Ir.Mov (d, k)
                | None -> ins)
            | None -> ins
          in
          (* context-free peepholes *)
          let ins =
            match peephole_instr ins with
            | Some ins' ->
                incr events;
                ins'
            | None -> ins
          in
          (* merge Lea chains: a Lea whose base was itself computed by a
             Lea with constant or degenerate index collapses into one *)
          let ins =
            match ins with
            | Ir.Lea (d, R b, idx, s, o) when lea_on.(b) -> (
                let lp = lea_of.(b) in
                let base_disp =
                  match (lp.lp_idx, lp.lp_scale) with
                  | _, 0 -> Some lp.lp_disp
                  | Ir.Ki i, sc when small_index i ->
                      Some (lp.lp_disp + (Int64.to_int i * sc))
                  | _ -> None
                in
                match (base_disp, idx) with
                | Some bd, _ ->
                    incr events;
                    Ir.Lea (d, lp.lp_base, idx, s, o + bd)
                | None, Ir.Ki i when small_index i ->
                    incr events;
                    Ir.Lea
                      (d, lp.lp_base, lp.lp_idx, lp.lp_scale,
                       o + (Int64.to_int i * s) + lp.lp_disp)
                | None, _ -> ins)
            | _ -> ins
          in
          recount ins0 ins;
          (* drop self-moves *)
          match ins with
          | Ir.Mov (d, R s) when d = s ->
              incr events;
              dc.(d) <- dc.(d) - 1;
              uc.(d) <- uc.(d) - 1
          | _ ->
              (match Ir.def_reg ins with -1 -> () | d -> kill d);
              (match ins with
              | Ir.Mov (d, ((Ir.Ki _ | Ir.Kf _) as k)) ->
                  const_on.(d) <- true;
                  const_of.(d) <- k;
                  touch d
              | Ir.Mov (d, (R s as src)) when d <> s ->
                  copy_of.(d) <- s;
                  read_by d src;
                  touch d
              | Ir.Lea (d, base, idx, s, o) ->
                  if not (is_reg d base || is_reg d idx) then begin
                    lea_on.(d) <- true;
                    lea_of.(d) <-
                      { lp_base = base; lp_idx = idx; lp_scale = s; lp_disp = o };
                    read_by d base;
                    read_by d idx;
                    touch d
                  end
              | _ -> ());
              out := ins :: !out)
        b.Cfg.instrs;
      b.Cfg.instrs <- List.rev !out;
      (match b.Cfg.term with
      | Cfg.Tbr (c, x, y) -> b.Cfg.term <- Cfg.Tbr (subst c, x, y)
      | Cfg.Tret (Some v) -> b.Cfg.term <- Cfg.Tret (Some (subst v))
      | _ -> ());
      (* the environment is per block *)
      List.iter
        (fun r ->
          const_on.(r) <- false;
          copy_of.(r) <- -1;
          lea_on.(r) <- false;
          readers.(r) <- [])
        !touched;
      touched := [])
    cfg.Cfg.blocks;
  !events

(* ------------------------------------------------------------------ *)
(* Destination fusing                                                  *)
(* ------------------------------------------------------------------ *)

(** Rewrite [instr w, ...; Mov r, R w] into [instr r, ...] when [w] is
    defined once and used only by that adjacent Mov.  This removes the
    temporary the expression lowerer materializes for every assignment. *)
let fuse_defs (cfg : Cfg.t) (di : Cfg.definfo) : int =
  let events = ref 0 in
  let set_dest d = function
    | Ir.Mov (_, a) -> Ir.Mov (d, a)
    | Ibin (op, _, a, b) -> Ir.Ibin (op, d, a, b)
    | Fbin (fk, op, _, a, b) -> Ir.Fbin (fk, op, d, a, b)
    | Iun (op, _, a) -> Ir.Iun (op, d, a)
    | Fun (fk, op, _, a) -> Ir.Fun (fk, op, d, a)
    | Lea (_, a, b, s, o) -> Ir.Lea (d, a, b, s, o)
    | Load (m, _, a) -> Ir.Load (m, d, a)
    | Vload (fk, l, _, a) -> Ir.Vload (fk, l, d, a)
    | Vsplat (fk, l, _, a) -> Ir.Vsplat (fk, l, d, a)
    | Vbin (fk, l, op, _, a, b) -> Ir.Vbin (fk, l, op, d, a, b)
    | Vun (fk, l, op, _, a) -> Ir.Vun (fk, l, op, d, a)
    | Vextract (_, a, i) -> Ir.Vextract (d, a, i)
    | Cvt (ft, tt, _, a) -> Ir.Cvt (ft, tt, d, a)
    | Call (_, f, args) -> Ir.Call (Some d, f, args)
    | Callind (_, f, args) -> Ir.Callind (Some d, f, args)
    | Ccall (_, i, args) -> Ir.Ccall (Some d, i, args)
    | FrameAddr (_, o) -> Ir.FrameAddr (d, o)
    | ins -> ins
  in
  List.iter
    (fun b ->
      (* a block with nothing to fuse keeps its list *)
      let rec walk l =
        match l with
        | i1 :: Ir.Mov (r, R w) :: rest
          when r <> w
               && di.Cfg.def_counts.(w) = 1
               && di.Cfg.use_counts.(w) = 1
               && Ir.def_reg i1 = w ->
            incr events;
            walk (set_dest r i1 :: rest)
        | i1 :: rest ->
            let rest' = walk rest in
            if rest' == rest then l else i1 :: rest'
        | [] -> l
      in
      b.Cfg.instrs <- walk b.Cfg.instrs)
    cfg.Cfg.blocks;
  !events
