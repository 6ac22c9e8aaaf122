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

(* Monomorphic operand order and equality: R < Ki < Kf, and floats by
   [Float.compare], then by bit pattern.  Two float constants are the
   same operand only when their bits are: [x + 0.0] and [x + -0.0]
   differ at [x = -0.0], and NaNs differ by payload. *)
let compare_operand a b =
  match (a, b) with
  | Ir.R x, Ir.R y -> Int.compare x y
  | Ir.Ki x, Ir.Ki y -> Int64.compare x y
  | Ir.Kf x, Ir.Kf y -> (
      match Float.compare x y with
      | 0 -> Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)
      | c -> c)
  | Ir.R _, _ -> -1
  | _, Ir.R _ -> 1
  | Ir.Ki _, Ir.Kf _ -> -1
  | Ir.Kf _, Ir.Ki _ -> 1

let op_equal a b =
  match (a, b) with
  | Ir.R x, Ir.R y -> x = y
  | Ir.Ki x, Ir.Ki y -> Int64.equal x y
  | Ir.Kf x, Ir.Kf y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let sort2 a b = if compare_operand a b <= 0 then (a, b) else (b, a)

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

(* The enumeration fields are immediates, so [==] is their equality. *)
let key_equal k1 k2 =
  match (k1, k2) with
  | Kibin (o1, a1, b1), Kibin (o2, a2, b2) ->
      o1 == o2 && op_equal a1 a2 && op_equal b1 b2
  | Kfbin (f1, o1, a1, b1), Kfbin (f2, o2, a2, b2) ->
      f1 == f2 && o1 == o2 && op_equal a1 a2 && op_equal b1 b2
  | Kiun (o1, a1), Kiun (o2, a2) -> o1 == o2 && op_equal a1 a2
  | Kfun (f1, o1, a1), Kfun (f2, o2, a2) ->
      f1 == f2 && o1 == o2 && op_equal a1 a2
  | Klea (b1, i1, s1, d1), Klea (b2, i2, s2, d2) ->
      s1 = s2 && d1 = d2 && op_equal b1 b2 && op_equal i1 i2
  | Kcvt (f1, t1, a1), Kcvt (f2, t2, a2) ->
      f1 == f2 && t1 == t2 && op_equal a1 a2
  | Kframe o1, Kframe o2 -> o1 = o2
  | Kvsplat (f1, l1, a1), Kvsplat (f2, l2, a2) ->
      f1 == f2 && l1 = l2 && op_equal a1 a2
  | Kvbin (f1, l1, o1, a1, b1), Kvbin (f2, l2, o2, a2, b2) ->
      f1 == f2 && l1 = l2 && o1 == o2 && op_equal a1 a2 && op_equal b1 b2
  | Kvun (f1, l1, o1, a1), Kvun (f2, l2, o2, a2) ->
      f1 == f2 && l1 = l2 && o1 == o2 && op_equal a1 a2
  | Kvextract (a1, i1), Kvextract (a2, i2) -> i1 = i2 && op_equal a1 a2
  | Kload (m1, a1), Kload (m2, a2) -> m1 == m2 && op_equal a1 a2
  | Kvload (f1, l1, a1), Kvload (f2, l2, a2) ->
      f1 == f2 && l1 = l2 && op_equal a1 a2
  | _ -> false

let key_is_load = function Kload _ | Kvload _ -> true | _ -> false

(** The key's expression reads register [d]. *)
let key_reads d k =
  match k with
  | Kibin (_, a, b) | Kfbin (_, _, a, b) | Kvbin (_, _, _, a, b)
  | Klea (a, b, _, _) ->
      Simplify.is_reg d a || Simplify.is_reg d b
  | Kiun (_, a) | Kfun (_, _, a) | Kcvt (_, _, a) | Kvsplat (_, _, a)
  | Kvun (_, _, _, a) | Kvextract (a, _) | Kload (_, a) | Kvload (_, _, a) ->
      Simplify.is_reg d a
  | Kframe _ -> false

(* Add the registers the entry [(k, h)] holds or reads to [bits]. *)
let mark_op bits = function
  | Ir.R r -> Cfg.Bits.add bits r
  | Ir.Ki _ | Ir.Kf _ -> ()

let mark_entry bits (k, h) =
  Cfg.Bits.add bits h;
  match k with
  | Kibin (_, a, b) | Kfbin (_, _, a, b) | Kvbin (_, _, _, a, b)
  | Klea (a, b, _, _) ->
      mark_op bits a;
      mark_op bits b
  | Kiun (_, a) | Kfun (_, _, a) | Kcvt (_, _, a) | Kvsplat (_, _, a)
  | Kvun (_, _, _, a) | Kvextract (a, _) | Kload (_, a) | Kvload (_, _, a) ->
      mark_op bits a
  | Kframe _ -> ()

let rec assoc_key k = function
  | [] -> None
  | (k', h) :: rest -> if key_equal k k' then Some h else assoc_key k rest

(* The table without entries for loads, or that hold or read register
   [d]; each returns the list itself when nothing goes, so a kill that
   matches nothing allocates nothing. *)
let rec drop_loads = function
  | [] -> []
  | ((k, _) as e) :: rest as l ->
      let rest' = drop_loads rest in
      if key_is_load k then rest' else if rest' == rest then l else e :: rest'

let rec drop_reg d = function
  | [] -> []
  | ((k, h) as e) :: rest as l ->
      let rest' = drop_reg d rest in
      if h = d || key_reads d k then rest'
      else if rest' == rest then l
      else e :: rest'

(** [run ~allow_loads cfg] returns the number of instructions replaced by
    register reuse. *)
let run ~allow_loads (cfg : Cfg.t) : int =
  let di = Cfg.def_info cfg in
  let sh = Cfg.shape cfg in
  let events = ref 0 in
  (* end-of-block value tables, by block id *)
  let end_tables : (key * int) list option array =
    Array.make cfg.Cfg.next_bid None
  in
  List.iter
    (fun bid ->
      match sh.Cfg.by_bid.(bid) with
      | None -> ()
      | Some b ->
          let tbl =
            (* inherit along a unique forward edge: the predecessor's end
               table is valid on entry when it is the sole predecessor *)
            match Cfg.pred_list sh.Cfg.preds bid with
            | [ p ] when p <> bid -> (
                match end_tables.(p) with Some t -> ref t | None -> ref [])
            | _ -> ref []
          in
          (* a superset of the registers the table mentions: a kill of
             any other register has nothing to drop *)
          let mentioned = Cfg.Bits.create (Array.length di.Cfg.def_counts) in
          List.iter (mark_entry mentioned) !tbl;
          let kill_loads () = tbl := drop_loads !tbl in
          let kill_reg d =
            if Cfg.Bits.mem mentioned d then tbl := drop_reg d !tbl
          in
          let out = ref [] in
          List.iter
            (fun ins ->
              (match ins with
              | Ir.Store _ | Ir.Vstore _ | Ir.Call _ | Ir.Callind _
              | Ir.Ccall _ ->
                  kill_loads ()
              | _ -> ());
              let key = key_of ~allow_loads ins in
              let d = Ir.def_reg ins in
              let replaced =
                match key with
                | Some k when d >= 0 -> (
                    match assoc_key k !tbl with
                    | Some h when h <> d ->
                        incr events;
                        kill_reg d;
                        out := Ir.Mov (d, R h) :: !out;
                        true
                    | _ -> false)
                | _ -> false
              in
              if not replaced then begin
                if d >= 0 then kill_reg d;
                (match key with
                | Some k when d >= 0 && di.Cfg.def_counts.(d) = 1 ->
                    let e = (k, d) in
                    mark_entry mentioned e;
                    tbl := e :: !tbl
                | _ -> ());
                out := ins :: !out
              end)
            b.Cfg.instrs;
          b.Cfg.instrs <- List.rev !out;
          end_tables.(bid) <- Some !tbl)
    (Cfg.reverse_postorder cfg);
  !events
