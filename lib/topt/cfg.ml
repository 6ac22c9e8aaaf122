(** Basic-block control-flow graph over {!Tvm.Ir} functions.

    The linear IR (absolute instruction indices) stays the VM's executable
    format; the optimizer round-trips through this form.  Invariants:
    block bodies contain no control flow (every [Jmp]/[Br]/[Ret] marks its
    successor a leader, so terminators are always last), [blocks] is kept
    in layout order with the entry block first, and [to_func] re-linearises
    in that order, dropping jumps that fall through to the next block.

    Registers are dense in [0..nregs-1] and block ids in [0..next_bid-1],
    so every per-register and per-block table here and in the passes is
    an array or a {!Bits} set indexed by the id. *)

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

(** Fixed-size bitsets over dense ids. *)
module Bits = struct
  type t = int array

  let bpw = Sys.int_size
  let create n = Array.make ((n + bpw - 1) / bpw) 0

  let mem (s : t) i =
    let w = i / bpw in
    w < Array.length s && (s.(w) lsr (i mod bpw)) land 1 <> 0

  let add (s : t) i =
    let w = i / bpw in
    s.(w) <- s.(w) lor (1 lsl (i mod bpw))

  let remove (s : t) i =
    let w = i / bpw in
    s.(w) <- s.(w) land lnot (1 lsl (i mod bpw))

  let equal (a : t) (b : t) =
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  (** [dst := dst ∩ src] *)
  let inter_into (dst : t) (src : t) =
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- dst.(i) land src.(i)
    done
end

(** Facts that depend only on the CFG's blocks and edges, not on the
    instructions: cached on {!t} until a pass that changes blocks or jump
    targets calls {!invalidate}. *)
type shape = {
  by_bid : block option array;  (** indexed by block id *)
  preds : int list array;  (** unique predecessor ids, by block id *)
  mutable dom : Bits.t array option;  (** {!dominators}, on first use *)
}

type t = {
  fname : string;
  nparams : int;
  nregs : int;
  frame_bytes : int;
  mutable blocks : block list;  (** layout order; entry block first *)
  mutable next_bid : int;
  mutable shape : shape option;
}

let entry_bid t = (List.hd t.blocks).bid

(** Apply [f] to each distinct successor block id. *)
let iter_succs f b =
  match b.term with
  | Tjmp l -> f l
  | Tbr (_, a, b') ->
      f a;
      if a <> b' then f b'
  | Tret _ -> ()

(** Blocks indexed by id; [None] for ids not in [t.blocks]. *)
let index t =
  let by_bid = Array.make t.next_bid None in
  List.iter (fun b -> by_bid.(b.bid) <- Some b) t.blocks;
  by_bid

let invalidate t = t.shape <- None

let shape t =
  match t.shape with
  | Some s -> s
  | None ->
      let by_bid = index t in
      (* a block reaches each distinct successor once, so predecessor
         lists need no deduplication; each lists its predecessors in
         reverse layout order *)
      let preds = Array.make t.next_bid [] in
      List.iter
        (fun b ->
          iter_succs
            (fun s ->
              if Option.is_some by_bid.(s) then preds.(s) <- b.bid :: preds.(s))
            b)
        t.blocks;
      let s = { by_bid; preds; dom = None } in
      t.shape <- Some s;
      s

(** Predecessors of [bid] in a {!shape}'s [preds]. *)
let pred_list preds bid =
  if bid < Array.length preds then preds.(bid) else []

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
    shape = None;
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
  let start = Array.make t.next_bid (-1) in
  let pc = ref 0 in
  Array.iteri
    (fun i b ->
      start.(b.bid) <- !pc;
      pc := !pc + size i b)
    blocks;
  let target l =
    if l >= 0 && l < t.next_bid && start.(l) >= 0 then start.(l)
    else raise Unsupported
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

(** Iterative dominator analysis over bitsets, to its greatest fixpoint:
    dom(entry) = {entry}, dom(b) = {b} ∪ ⋂ dom(preds b), starting every
    other block from the set of all blocks.  A block with no predecessor
    (unreachable) keeps the full set.  Cached with the shape. *)
let dominators (t : t) : Bits.t array =
  let sh = shape t in
  match sh.dom with
  | Some d -> d
  | None ->
      let n = t.next_bid in
      let all = Bits.create n in
      List.iter (fun b -> Bits.add all b.bid) t.blocks;
      let entry = entry_bid t in
      let dom = Array.make n [||] in
      List.iter
        (fun b ->
          dom.(b.bid) <-
            (if b.bid = entry then begin
               let s = Bits.create n in
               Bits.add s entry;
               s
             end
             else Array.copy all))
        t.blocks;
      let tmp = Bits.create n in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun b ->
            if b.bid <> entry then begin
              (match sh.preds.(b.bid) with
              | [] -> Array.blit all 0 tmp 0 (Array.length tmp)
              | p :: rest ->
                  Array.blit dom.(p) 0 tmp 0 (Array.length tmp);
                  List.iter (fun q -> Bits.inter_into tmp dom.(q)) rest);
              Bits.add tmp b.bid;
              if not (Bits.equal tmp dom.(b.bid)) then begin
                Array.blit tmp 0 dom.(b.bid) 0 (Array.length tmp);
                changed := true
              end
            end)
          t.blocks
      done;
      sh.dom <- Some dom;
      dom

(** [dominates dom a b]: block [a] dominates block [b]. *)
let dominates (dom : Bits.t array) a b =
  b < Array.length dom && Bits.mem dom.(b) a

type definfo = {
  def_counts : int array;  (** static definitions per register *)
  use_counts : int array;  (** static uses per register (incl. terminators) *)
  site_bid : int array;
  site_idx : int array;
      (** [(site_bid.(r), site_idx.(r))] is the (block, index) of the one
          definition of a register whose count was 1 when [def_info] ran;
          parameters are implicit defs at (entry, -1) *)
}

let def_info (t : t) : definfo =
  let n = max 1 t.nregs in
  let dc = Array.make n 0 in
  let uc = Array.make n 0 in
  let sb = Array.make n 0 in
  let si = Array.make n 0 in
  let entry = entry_bid t in
  for r = 0 to t.nparams - 1 do
    dc.(r) <- 1;
    sb.(r) <- entry;
    si.(r) <- -1
  done;
  let use = function
    | Ir.R r when r >= 0 && r < n -> uc.(r) <- uc.(r) + 1
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iteri
        (fun i ins ->
          Ir.iter_uses use ins;
          let d = Ir.def_reg ins in
          if d >= 0 && d < n then begin
            dc.(d) <- dc.(d) + 1;
            if dc.(d) = 1 then begin
              sb.(d) <- b.bid;
              si.(d) <- i
            end
          end)
        b.instrs;
      match b.term with
      | Tbr (c, _, _) | Tret (Some c) -> use c
      | _ -> ())
    t.blocks;
  { def_counts = dc; use_counts = uc; site_bid = sb; site_idx = si }

(* ------------------------------------------------------------------ *)
(* CFG-level simplification                                            *)
(* ------------------------------------------------------------------ *)

let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

(** Fold constant/trivial branches, thread jumps through empty blocks,
    drop unreachable blocks, and merge single-predecessor chains.
    Returns the number of rewrites performed. *)
let simplify (t : t) : int =
  invalidate t;
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
  let by_bid = index t in
  let rec resolve visited l =
    if mem_int l visited then l
    else
      match by_bid.(l) with
      | Some { instrs = []; term = Tjmp u; _ } when u <> l ->
          resolve (l :: visited) u
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
  let alive = Array.make t.next_bid false in
  let rec dfs bid =
    if not alive.(bid) then begin
      alive.(bid) <- true;
      match by_bid.(bid) with Some b -> iter_succs dfs b | None -> ()
    end
  in
  dfs (entry_bid t);
  let kept, dropped = List.partition (fun b -> alive.(b.bid)) t.blocks in
  List.iter (fun b -> events := !events + 1 + List.length b.instrs) dropped;
  t.blocks <- kept;
  (* merge single-predecessor straight-line chains.  Each round judges
     predecessors as they were at its start; a block merged away earlier
     in the round is skipped, since acting on it would delete its (live)
     successor while a live block still jumps there *)
  let npreds = Array.make t.next_bid 0 in
  let last_pred = Array.make t.next_bid (-1) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.fill npreds 0 t.next_bid 0;
    List.iter
      (fun b ->
        iter_succs
          (fun s ->
            if alive.(s) then begin
              npreds.(s) <- npreds.(s) + 1;
              last_pred.(s) <- b.bid
            end)
          b)
      t.blocks;
    let entry = entry_bid t in
    List.iter
      (fun b ->
        match b.term with
        | Tjmp c
          when alive.(b.bid) && c <> b.bid && c <> entry && alive.(c)
               && npreds.(c) = 1 && last_pred.(c) = b.bid -> (
            match by_bid.(c) with
            | Some cb ->
                b.instrs <- b.instrs @ cb.instrs;
                b.term <- cb.term;
                alive.(c) <- false;
                incr events;
                changed := true
            | None -> ())
        | _ -> ())
      t.blocks;
    if !changed then t.blocks <- List.filter (fun b -> alive.(b.bid)) t.blocks
  done;
  !events

(** Reverse postorder over reachable blocks, starting at the entry. *)
let reverse_postorder (t : t) : int list =
  let by_bid = (shape t).by_bid in
  let seen = Array.make t.next_bid false in
  let order = ref [] in
  let rec dfs bid =
    if not seen.(bid) then begin
      seen.(bid) <- true;
      (match by_bid.(bid) with Some b -> iter_succs dfs b | None -> ());
      order := bid :: !order
    end
  in
  dfs (entry_bid t);
  !order
