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
module IS = Cfg.IS

(* ------------------------------------------------------------------ *)
(* Global copy/constant propagation                                    *)
(* ------------------------------------------------------------------ *)

(** Propagate [Mov d, k] and [Mov d, R s] through the whole function when
    [d] is defined exactly once (and, for register copies, [s] is too and
    its definition strictly precedes [d]'s).  A use is rewritten only when
    the defining Mov dominates it.  The Movs themselves are left for DCE. *)
let global_copyprop (cfg : Cfg.t) : int =
  let di = Cfg.def_info cfg in
  let dom = Cfg.dominators cfg in
  let site r = Hashtbl.find_opt di.Cfg.def_site r in
  (* strict "a executes before b" for single-def sites *)
  let before (ba, ia) (bb, ib) =
    if ba = bb then ia < ib else Cfg.dominates dom ba bb
  in
  let cand : (int, Ir.operand) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun b ->
      List.iter
        (fun ins ->
          match ins with
          | Ir.Mov (d, rhs) when di.Cfg.def_counts.(d) = 1 -> (
              match rhs with
              | Ir.Ki _ | Ir.Kf _ -> Hashtbl.replace cand d rhs
              | Ir.R s when s <> d && di.Cfg.def_counts.(s) = 1 -> (
                  match (site s, site d) with
                  | Some ss, Some sd when before ss sd ->
                      Hashtbl.replace cand d (Ir.R s)
                  | _ -> ())
              | _ -> ())
          | _ -> ())
        b.Cfg.instrs)
    cfg.Cfg.blocks;
  (* resolve copy chains: d -> s -> t becomes d -> t *)
  let rec resolve fuel op =
    match op with
    | Ir.R r when fuel > 0 -> (
        match Hashtbl.find_opt cand r with
        | Some next -> resolve (fuel - 1) next
        | None -> op)
    | _ -> op
  in
  let events = ref 0 in
  let rewrite_operand ~usepoint op =
    match op with
    | Ir.R r -> (
        match Hashtbl.find_opt cand r with
        | Some _ -> (
            match site r with
            | Some sr when before sr usepoint ->
                let op' = resolve 64 op in
                if op' <> op then incr events;
                op'
            | _ -> op)
        | None -> op)
    | _ -> op
  in
  List.iter
    (fun b ->
      b.Cfg.instrs <-
        List.mapi
          (fun i ins ->
            Ir.map_uses (rewrite_operand ~usepoint:(b.Cfg.bid, i)) ins)
          b.Cfg.instrs;
      let tp = (b.Cfg.bid, max_int) in
      match b.Cfg.term with
      | Cfg.Tbr (c, x, y) ->
          b.Cfg.term <- Cfg.Tbr (rewrite_operand ~usepoint:tp c, x, y)
      | Cfg.Tret (Some v) ->
          b.Cfg.term <- Cfg.Tret (Some (rewrite_operand ~usepoint:tp v))
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

(** Per-block forward walk: propagate constants and copies through an
    environment killed on redefinition, fold instructions whose operands
    became constant, apply peepholes, and merge chained Lea address
    computations. *)
let local_simplify (cfg : Cfg.t) : int =
  let events = ref 0 in
  List.iter
    (fun b ->
      let env_const : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
      let env_copy : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let leas : (int, lea_parts) Hashtbl.t = Hashtbl.create 16 in
      let kill d =
        Hashtbl.remove env_const d;
        Hashtbl.remove env_copy d;
        Hashtbl.remove leas d;
        (* drop entries that mention d on their right-hand side *)
        let stale_copies =
          Hashtbl.fold
            (fun k s acc -> if s = d then k :: acc else acc)
            env_copy []
        in
        List.iter (Hashtbl.remove env_copy) stale_copies;
        let mentions op = op = Ir.R d in
        let stale_leas =
          Hashtbl.fold
            (fun k lp acc ->
              if mentions lp.lp_base || mentions lp.lp_idx then k :: acc
              else acc)
            leas []
        in
        List.iter (Hashtbl.remove leas) stale_leas
      in
      let subst op =
        match op with
        | Ir.R r -> (
            match Hashtbl.find_opt env_const r with
            | Some k ->
                incr events;
                k
            | None -> (
                match Hashtbl.find_opt env_copy r with
                | Some s ->
                    incr events;
                    Ir.R s
                | None -> op))
        | _ -> op
      in
      let out = ref [] in
      List.iter
        (fun ins ->
          let ins = Ir.map_uses subst ins in
          (* fold to a constant Mov if all operands are now constant *)
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
            | Ir.Lea (d, R b, idx, s, o) -> (
                match Hashtbl.find_opt leas b with
                | Some lp ->
                    let base_disp =
                      match (lp.lp_idx, lp.lp_scale) with
                      | _, 0 -> Some lp.lp_disp
                      | Ir.Ki i, sc
                        when Int64.abs i < 0x1000_0000L ->
                          Some (lp.lp_disp + (Int64.to_int i * sc))
                      | _ -> None
                    in
                    (match (base_disp, idx) with
                    | Some bd, _ ->
                        incr events;
                        Ir.Lea (d, lp.lp_base, idx, s, o + bd)
                    | None, Ir.Ki i when Int64.abs i < 0x1000_0000L ->
                        incr events;
                        Ir.Lea
                          (d, lp.lp_base, lp.lp_idx, lp.lp_scale,
                           o + (Int64.to_int i * s) + lp.lp_disp)
                    | None, _ -> ins)
                | None -> ins)
            | _ -> ins
          in
          (* drop self-moves *)
          match ins with
          | Ir.Mov (d, R s) when d = s -> incr events
          | _ ->
              (match Ir.def ins with Some d -> kill d | None -> ());
              (match ins with
              | Ir.Mov (d, ((Ir.Ki _ | Ir.Kf _) as k)) ->
                  Hashtbl.replace env_const d k
              | Ir.Mov (d, R s) when d <> s -> Hashtbl.replace env_copy d s
              | Ir.Lea (d, base, idx, s, o) ->
                  if base <> Ir.R d && idx <> Ir.R d then
                    Hashtbl.replace leas d
                      { lp_base = base; lp_idx = idx; lp_scale = s; lp_disp = o }
              | _ -> ());
              out := ins :: !out)
        b.Cfg.instrs;
      b.Cfg.instrs <- List.rev !out;
      (match b.Cfg.term with
      | Cfg.Tbr (c, x, y) -> b.Cfg.term <- Cfg.Tbr (subst c, x, y)
      | Cfg.Tret (Some v) -> b.Cfg.term <- Cfg.Tret (Some (subst v))
      | _ -> ()))
    cfg.Cfg.blocks;
  !events

(* ------------------------------------------------------------------ *)
(* Destination fusing                                                  *)
(* ------------------------------------------------------------------ *)

(** Rewrite [instr w, ...; Mov r, R w] into [instr r, ...] when [w] is
    defined once and used only by that adjacent Mov.  This removes the
    temporary the expression lowerer materializes for every assignment. *)
let fuse_defs (cfg : Cfg.t) : int =
  let di = Cfg.def_info cfg in
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
      let rec walk = function
        | i1 :: Ir.Mov (r, R w) :: rest
          when Ir.def i1 = Some w && r <> w
               && di.Cfg.def_counts.(w) = 1
               && di.Cfg.use_counts.(w) = 1 ->
            incr events;
            walk (set_dest r i1 :: rest)
        | i1 :: rest -> i1 :: walk rest
        | [] -> []
      in
      b.Cfg.instrs <- walk b.Cfg.instrs)
    cfg.Cfg.blocks;
  !events
