(** Basic-block control-flow graph over {!Tvm.Ir} functions.

    The linear IR (absolute instruction indices) stays the VM's executable
    format; the optimizer round-trips through this form.  Invariants:
    block bodies contain no control flow (every [Jmp]/[Br]/[Ret] marks its
    successor a leader, so terminators are always last), [blocks] is kept
    in layout order with the entry block first, and [to_func] re-linearises
    in that order, dropping jumps that fall through to the next block. *)

module Ir = Tvm.Ir

exception Unsupported
(** Raised by {!of_func} on code this layer cannot represent (branch
    targets outside the function, empty body).  The pipeline treats it as
    "leave the function alone". *)

type term =
  | Tjmp of int  (** unconditional edge to block id *)
  | Tbr of Ir.operand * int * int  (** cond, then-block, else-block *)
  | Tret of Ir.operand option

type block = {
  bid : int;
  mutable instrs : Ir.instr list;  (** straight-line body, no control flow *)
  mutable term : term;
}

type t = {
  fname : string;
  nparams : int;
  nregs : int;
  frame_bytes : int;
  mutable blocks : block list;  (** layout order; entry block first *)
  mutable next_bid : int;
}

let entry_bid t = (List.hd t.blocks).bid
let find t bid = List.find (fun b -> b.bid = bid) t.blocks

let succs b =
  match b.term with
  | Tjmp l -> [ l ]
  | Tbr (_, a, b') -> if a = b' then [ a ] else [ a; b' ]
  | Tret _ -> []

(** Predecessor block ids (unique) for every block. *)
let preds t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.bid []) t.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt tbl s with
          | Some ps when not (List.mem b.bid ps) ->
              Hashtbl.replace tbl s (b.bid :: ps)
          | _ -> ())
        (succs b))
    t.blocks;
  tbl

let pred_list preds bid = try Hashtbl.find preds bid with Not_found -> []

(* ------------------------------------------------------------------ *)
(* Linear IR <-> CFG                                                   *)
(* ------------------------------------------------------------------ *)

let of_func (f : Ir.func) : t =
  let code = f.Ir.code in
  let n = Array.length code in
  if n = 0 then raise Unsupported;
  let leader = Array.make n false in
  leader.(0) <- true;
  let mark l = if l < 0 || l >= n then raise Unsupported else leader.(l) <- true in
  let mark_next i = if i + 1 < n then leader.(i + 1) <- true in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ir.Jmp l ->
          mark l;
          mark_next i
      | Ir.Br (_, a, b) ->
          mark a;
          mark b;
          mark_next i
      | Ir.Ret _ -> mark_next i
      | _ -> ())
    code;
  let bid_of = Array.make n (-1) in
  let nb = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then begin
      bid_of.(i) <- !nb;
      incr nb
    end
    else bid_of.(i) <- !nb - 1
  done;
  let blocks = ref [] in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let e = ref (s + 1) in
    while !e < n && not leader.(!e) do
      incr e
    done;
    let e = !e in
    let body_end, term =
      match code.(e - 1) with
      | Ir.Jmp l -> (e - 1, Tjmp bid_of.(l))
      | Ir.Br (c, a, b) -> (e - 1, Tbr (c, bid_of.(a), bid_of.(b)))
      | Ir.Ret r -> (e - 1, Tret r)
      | _ -> if e >= n then raise Unsupported else (e, Tjmp bid_of.(e))
    in
    let instrs = Array.to_list (Array.sub code s (body_end - s)) in
    blocks := { bid = bid_of.(s); instrs; term } :: !blocks;
    i := e
  done;
  {
    fname = f.Ir.fname;
    nparams = f.Ir.nparams;
    nregs = f.Ir.nregs;
    frame_bytes = f.Ir.frame_bytes;
    blocks = List.rev !blocks;
    next_bid = !nb;
  }

let to_func (t : t) : Ir.func =
  let blocks = Array.of_list t.blocks in
  let nb = Array.length blocks in
  let next_of = Array.make nb (-1) in
  for i = 0 to nb - 2 do
    next_of.(i) <- blocks.(i + 1).bid
  done;
  let size i b =
    List.length b.instrs
    + (match b.term with Tjmp l when l = next_of.(i) -> 0 | _ -> 1)
  in
  let start = Hashtbl.create nb in
  let pc = ref 0 in
  Array.iteri
    (fun i b ->
      Hashtbl.replace start b.bid !pc;
      pc := !pc + size i b)
    blocks;
  let target l =
    match Hashtbl.find_opt start l with Some p -> p | None -> raise Unsupported
  in
  let out = Array.make (max 1 !pc) (Ir.Ret None) in
  let k = ref 0 in
  let emit ins =
    out.(!k) <- ins;
    incr k
  in
  Array.iteri
    (fun i b ->
      List.iter emit b.instrs;
      match b.term with
      | Tjmp l when l = next_of.(i) -> ()
      | Tjmp l -> emit (Ir.Jmp (target l))
      | Tbr (c, a, b') -> emit (Ir.Br (c, target a, target b'))
      | Tret r -> emit (Ir.Ret r))
    blocks;
  {
    Ir.fname = t.fname;
    nparams = t.nparams;
    nregs = t.nregs;
    frame_bytes = t.frame_bytes;
    code = out;
  }

(* ------------------------------------------------------------------ *)
(* Optimizer policy                                                    *)
(* ------------------------------------------------------------------ *)

(** Pure, never-trapping on type-correct input, and free of memory/system
    effects: safe to delete when dead and to hoist out of loops.  Memory
    reads and writes are deliberately excluded so the sanitizer still sees
    every access, and integer division only qualifies with a known
    non-zero constant divisor. *)
let speculable = function
  | Ir.Mov _ | Lea _ | FrameAddr _ | Fbin _ | Fun _ | Cvt _ | Vsplat _
  | Vbin _ | Vun _ | Iun _ ->
      true
  | Ibin (op, _, _, b) -> (
      match op with
      | Divs | Divu | Rems | Remu -> (
          match b with Ki k -> k <> 0L | _ -> false)
      | _ -> true)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Dominators and definition info                                      *)
(* ------------------------------------------------------------------ *)

module IS = Set.Make (Int)

(** Iterative set-based dominator analysis: dom(entry) = {entry},
    dom(b) = {b} ∪ ⋂ dom(preds b). *)
let dominators (t : t) : (int, IS.t) Hashtbl.t =
  let bids = List.map (fun b -> b.bid) t.blocks in
  let all = IS.of_list bids in
  let entry = entry_bid t in
  let ps = preds t in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace dom b (if b = entry then IS.singleton entry else all))
    bids;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b.bid <> entry then begin
          let inter =
            match pred_list ps b.bid with
            | [] -> all
            | p :: rest ->
                List.fold_left
                  (fun acc q -> IS.inter acc (Hashtbl.find dom q))
                  (Hashtbl.find dom p) rest
          in
          let nd = IS.add b.bid inter in
          if not (IS.equal nd (Hashtbl.find dom b.bid)) then begin
            Hashtbl.replace dom b.bid nd;
            changed := true
          end
        end)
      t.blocks
  done;
  dom

(** [dominates dom a b]: block [a] dominates block [b]. *)
let dominates dom a b =
  match Hashtbl.find_opt dom b with Some s -> IS.mem a s | None -> false

type definfo = {
  def_counts : int array;  (** static definitions per register *)
  use_counts : int array;  (** static uses per register (incl. terminators) *)
  def_site : (int, int * int) Hashtbl.t;
      (** reg -> (bid, index) for single-def registers; parameters are
          implicit defs at (entry, -1) *)
}

let def_info (t : t) : definfo =
  let dc = Array.make (max 1 t.nregs) 0 in
  let uc = Array.make (max 1 t.nregs) 0 in
  let site = Hashtbl.create 64 in
  let entry = entry_bid t in
  for r = 0 to t.nparams - 1 do
    dc.(r) <- 1;
    Hashtbl.replace site r (entry, -1)
  done;
  let def r bid idx =
    if r >= 0 && r < Array.length dc then begin
      dc.(r) <- dc.(r) + 1;
      if dc.(r) = 1 then Hashtbl.replace site r (bid, idx)
      else Hashtbl.remove site r
    end
  in
  let use r = if r >= 0 && r < Array.length uc then uc.(r) <- uc.(r) + 1 in
  List.iter
    (fun b ->
      List.iteri
        (fun i ins ->
          List.iter use (Ir.reg_uses ins);
          match Ir.def ins with Some d -> def d b.bid i | None -> ())
        b.instrs;
      match b.term with
      | Tbr (Ir.R r, _, _) -> use r
      | Tret (Some (Ir.R r)) -> use r
      | _ -> ())
    t.blocks;
  { def_counts = dc; use_counts = uc; def_site = site }

(* ------------------------------------------------------------------ *)
(* CFG-level simplification                                            *)
(* ------------------------------------------------------------------ *)

(** Fold constant/trivial branches, thread jumps through empty blocks,
    drop unreachable blocks, and merge single-predecessor chains.
    Returns the number of rewrites performed. *)
let simplify (t : t) : int =
  let events = ref 0 in
  (* constant or degenerate branches *)
  List.iter
    (fun b ->
      match b.term with
      | Tbr (Ir.Ki k, a, b') ->
          b.term <- Tjmp (if k <> 0L then a else b');
          incr events
      | Tbr (Ir.Kf _, _, _) -> ()  (* ill-typed cond; leave for the VM *)
      | Tbr (_, a, b') when a = b' ->
          b.term <- Tjmp a;
          incr events
      | _ -> ())
    t.blocks;
  (* thread jumps through empty forwarding blocks *)
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.bid b) t.blocks;
  let rec resolve visited l =
    if List.mem l visited then l
    else
      match Hashtbl.find_opt tbl l with
      | Some b when b.instrs = [] -> (
          match b.term with
          | Tjmp u when u <> l -> resolve (l :: visited) u
          | _ -> l)
      | _ -> l
  in
  List.iter
    (fun b ->
      let r l =
        let l' = resolve [ b.bid ] l in
        if l' <> l then incr events;
        l'
      in
      match b.term with
      | Tjmp l -> b.term <- Tjmp (r l)
      | Tbr (c, a, b') -> b.term <- Tbr (c, r a, r b')
      | Tret _ -> ())
    t.blocks;
  (* unreachable-block removal (DFS from entry) *)
  let reach = Hashtbl.create 16 in
  let rec dfs bid =
    if not (Hashtbl.mem reach bid) then begin
      Hashtbl.replace reach bid ();
      match Hashtbl.find_opt tbl bid with
      | Some b -> List.iter dfs (succs b)
      | None -> ()
    end
  in
  dfs (entry_bid t);
  let kept, dropped =
    List.partition (fun b -> Hashtbl.mem reach b.bid) t.blocks
  in
  List.iter (fun b -> events := !events + 1 + List.length b.instrs) dropped;
  t.blocks <- kept;
  (* merge single-predecessor straight-line chains *)
  let changed = ref true in
  while !changed do
    changed := false;
    let ps = preds t in
    let entry = entry_bid t in
    List.iter
      (fun b ->
        match b.term with
        (* a block merged away earlier in this round is still in the
           snapshot this iteration walks; acting on it would delete its
           (live) successor while a live block still jumps there *)
        | _ when not (List.memq b t.blocks) -> ()
        | Tjmp c when c <> b.bid && c <> entry -> (
            match pred_list ps c with
            | [ p ] when p = b.bid -> (
                match List.find_opt (fun x -> x.bid = c) t.blocks with
                | Some cb ->
                    b.instrs <- b.instrs @ cb.instrs;
                    b.term <- cb.term;
                    t.blocks <- List.filter (fun x -> x.bid <> c) t.blocks;
                    incr events;
                    changed := true
                | None -> ())
            | _ -> ())
        | _ -> ())
      t.blocks
  done;
  !events

(** Reverse postorder over reachable blocks, starting at the entry. *)
let reverse_postorder (t : t) : int list =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.bid b) t.blocks;
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs bid =
    if not (Hashtbl.mem seen bid) then begin
      Hashtbl.replace seen bid ();
      (match Hashtbl.find_opt tbl bid with
      | Some b -> List.iter dfs (succs b)
      | None -> ());
      order := bid :: !order
    end
  in
  dfs (entry_bid t);
  !order
