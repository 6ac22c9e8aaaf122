(** Local common-subexpression elimination with dominator inheritance.

    Classic value numbering over block-local tables, except a block whose
    only predecessor is its immediate dominator starts from that
    predecessor's end-of-block table — which is exactly the shape the
    lowerer emits for loop conditions feeding loop bodies, so expressions
    shared between a `while` condition and its body (the hot pattern in
    mandelbrot) are caught without a full GVN.

    Sanitizer-safety rule: redundant-load elimination (same address, no
    intervening store or call) only runs with [allow_loads:true]; under
    `--checked` every Load/Vload is kept so the shadow map still observes
    each access.  Stores are never touched by this pass. *)

module Ir = Tvm.Ir

(** Expression keys: the instruction with its destination normalised out
    and commutative integer/float operands sorted. *)
type key =
  | Kibin of Ir.ibin * Ir.operand * Ir.operand
  | Kfbin of Ir.fk * Ir.fbin * Ir.operand * Ir.operand
  | Kiun of Ir.iun * Ir.operand
  | Kfun of Ir.fk * Ir.fun_ * Ir.operand
  | Klea of Ir.operand * Ir.operand * int * int
  | Kcvt of Ir.mty * Ir.mty * Ir.operand
  | Kframe of int
  | Kvsplat of Ir.fk * int * Ir.operand
  | Kvbin of Ir.fk * int * Ir.fbin * Ir.operand * Ir.operand
  | Kvun of Ir.fk * int * Ir.fun_ * Ir.operand
  | Kvextract of Ir.operand * int
  | Kload of Ir.mty * Ir.operand
  | Kvload of Ir.fk * int * Ir.operand

let sort2 a b = if compare a b <= 0 then (a, b) else (b, a)

let commutative_i = function
  | Ir.Add | Mul | Band | Bor | Bxor | Eq | Ne | Mins | Maxs -> true
  | _ -> false

let commutative_f = function
  | Ir.FAdd | FMul | FEq | FNe | FMin | FMax -> true
  | _ -> false

let key_of ~allow_loads (ins : Ir.instr) : key option =
  match ins with
  | Ir.Ibin (op, _, a, b) ->
      let a, b = if commutative_i op then sort2 a b else (a, b) in
      Some (Kibin (op, a, b))
  | Ir.Fbin (fk, op, _, a, b) ->
      let a, b = if commutative_f op then sort2 a b else (a, b) in
      Some (Kfbin (fk, op, a, b))
  | Ir.Iun (op, _, a) -> Some (Kiun (op, a))
  | Ir.Fun (fk, op, _, a) -> Some (Kfun (fk, op, a))
  | Ir.Lea (_, b, i, s, o) -> Some (Klea (b, i, s, o))
  | Ir.Cvt (ft, tt, _, a) -> Some (Kcvt (ft, tt, a))
  | Ir.FrameAddr (_, o) -> Some (Kframe o)
  | Ir.Vsplat (fk, l, _, a) -> Some (Kvsplat (fk, l, a))
  | Ir.Vbin (fk, l, op, _, a, b) ->
      let a, b = if commutative_f op then sort2 a b else (a, b) in
      Some (Kvbin (fk, l, op, a, b))
  | Ir.Vun (fk, l, op, _, a) -> Some (Kvun (fk, l, op, a))
  | Ir.Vextract (_, a, i) -> Some (Kvextract (a, i))
  | Ir.Load (m, _, a) when allow_loads -> Some (Kload (m, a))
  | Ir.Vload (fk, l, _, a) when allow_loads -> Some (Kvload (fk, l, a))
  | _ -> None

let key_is_load = function Kload _ | Kvload _ -> true | _ -> false

let key_regs = function
  | Kibin (_, a, b) | Kfbin (_, _, a, b) | Kvbin (_, _, _, a, b)
  | Klea (a, b, _, _) ->
      List.filter_map (function Ir.R r -> Some r | _ -> None) [ a; b ]
  | Kiun (_, a) | Kfun (_, _, a) | Kcvt (_, _, a) | Kvsplat (_, _, a)
  | Kvun (_, _, _, a) | Kvextract (a, _) | Kload (_, a) | Kvload (_, _, a) ->
      List.filter_map (function Ir.R r -> Some r | _ -> None) [ a ]
  | Kframe _ -> []

(** [run ~allow_loads cfg] returns the number of instructions replaced by
    register reuse. *)
let run ~allow_loads (cfg : Cfg.t) : int =
  let di = Cfg.def_info cfg in
  let preds = Cfg.preds cfg in
  let events = ref 0 in
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.Cfg.bid b) cfg.Cfg.blocks;
  (* end-of-block value tables, keyed by block id *)
  let end_tables : (int, (key * int) list) Hashtbl.t = Hashtbl.create 16 in
  let rpo = Cfg.reverse_postorder cfg in
  List.iter
    (fun bid ->
      match Hashtbl.find_opt blocks bid with
      | None -> ()
      | Some b ->
          let tbl =
            (* inherit along a unique forward edge: the predecessor's end
               table is valid on entry when it is the sole predecessor *)
            match Cfg.pred_list preds bid with
            | [ p ] when p <> bid -> (
                match Hashtbl.find_opt end_tables p with
                | Some t -> ref t
                | None -> ref [])
            | _ -> ref []
          in
          let kill_loads () =
            tbl := List.filter (fun (k, _) -> not (key_is_load k)) !tbl
          in
          let kill_reg d =
            tbl :=
              List.filter
                (fun (k, h) -> h <> d && not (List.mem d (key_regs k)))
                !tbl
          in
          let out = ref [] in
          List.iter
            (fun ins ->
              (match ins with
              | Ir.Store _ | Ir.Vstore _ | Ir.Call _ | Ir.Callind _
              | Ir.Ccall _ ->
                  kill_loads ()
              | _ -> ());
              let replaced =
                match (key_of ~allow_loads ins, Ir.def ins) with
                | Some k, Some d -> (
                    match List.assoc_opt k !tbl with
                    | Some h when h <> d ->
                        incr events;
                        kill_reg d;
                        out := Ir.Mov (d, R h) :: !out;
                        true
                    | _ -> false)
                | _ -> false
              in
              if not replaced then begin
                (match Ir.def ins with Some d -> kill_reg d | None -> ());
                (match (key_of ~allow_loads ins, Ir.def ins) with
                | Some k, Some d when di.Cfg.def_counts.(d) = 1 ->
                    tbl := (k, d) :: !tbl
                | _ -> ());
                out := ins :: !out
              end)
            b.Cfg.instrs;
          b.Cfg.instrs <- List.rev !out;
          Hashtbl.replace end_tables bid !tbl)
    rpo;
  !events
