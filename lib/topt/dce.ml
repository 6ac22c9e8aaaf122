(** Dead-code elimination via global backward liveness.

    A register is live if some path reaches a use before a redefinition;
    instructions whose destination is dead are deleted when they are
    {!Cfg.speculable} — memory accesses, calls, [SpillTouch], and
    [Prefetch] always stay, both for sanitizer visibility and to keep the
    machine cost model honest about the code's memory behaviour.

    Liveness is solved on register bitsets with a worklist of blocks.
    Each round deletes what that round's liveness proves dead, then the
    next round re-solves, until a round deletes nothing. *)

module Ir = Tvm.Ir
module Bits = Cfg.Bits

let run (cfg : Cfg.t) : int =
  let nregs = max 1 cfg.Cfg.nregs in
  let nb = cfg.Cfg.next_bid in
  let sh = Cfg.shape cfg in
  let events = ref 0 in
  (* per-block sets, allocated once and cleared every round; ids of
     blocks not in the CFG keep empty sets *)
  let sets () =
    let a = Array.make nb [||] in
    List.iter (fun b -> a.(b.Cfg.bid) <- Bits.create nregs) cfg.Cfg.blocks;
    a
  in
  let use = sets () and def = sets () in
  let live_in = sets () and live_out = sets () in
  let queued = Array.make nb false in
  let deleted = ref true in
  while !deleted do
    deleted := false;
    (* per-block use/def summary *)
    List.iter
      (fun b ->
        let bid = b.Cfg.bid in
        let u = use.(bid) and d = def.(bid) in
        Array.fill u 0 (Array.length u) 0;
        Array.fill d 0 (Array.length d) 0;
        Array.fill live_in.(bid) 0 (Array.length u) 0;
        Array.fill live_out.(bid) 0 (Array.length u) 0;
        let see_use = function
          | Ir.R r when r < nregs && not (Bits.mem d r) -> Bits.add u r
          | _ -> ()
        in
        List.iter
          (fun ins ->
            Ir.iter_uses see_use ins;
            let r = Ir.def_reg ins in
            if r >= 0 && r < nregs then Bits.add d r)
          b.Cfg.instrs;
        match b.Cfg.term with
        | Cfg.Tbr (c, _, _) | Cfg.Tret (Some c) -> see_use c
        | _ -> ())
      cfg.Cfg.blocks;
    (* least fixpoint of live_out = ∪ live_in(succs),
       live_in = use ∪ (live_out − def) *)
    let work = ref [] in
    List.iter
      (fun b ->
        queued.(b.Cfg.bid) <- true;
        work := b :: !work)
      cfg.Cfg.blocks;
    while !work <> [] do
      let b = List.hd !work in
      work := List.tl !work;
      queued.(b.Cfg.bid) <- false;
      let out = live_out.(b.Cfg.bid) in
      Cfg.iter_succs
        (fun s ->
          let sin = live_in.(s) in
          for w = 0 to Array.length sin - 1 do
            out.(w) <- out.(w) lor sin.(w)
          done)
        b;
      let inb = live_in.(b.Cfg.bid) in
      let u = use.(b.Cfg.bid) and d = def.(b.Cfg.bid) in
      let grew = ref false in
      for w = 0 to Array.length inb - 1 do
        let v = u.(w) lor (out.(w) land lnot d.(w)) in
        if v <> inb.(w) then begin
          inb.(w) <- v;
          grew := true
        end
      done;
      if !grew then
        List.iter
          (fun p ->
            if not queued.(p) then
              match sh.Cfg.by_bid.(p) with
              | Some pb ->
                  queued.(p) <- true;
                  work := pb :: !work
              | None -> ())
          (Cfg.pred_list sh.Cfg.preds b.Cfg.bid)
    done;
    (* backward in-block sweep *)
    List.iter
      (fun b ->
        let live = Array.copy live_out.(b.Cfg.bid) in
        (match b.Cfg.term with
        | Cfg.Tbr (Ir.R r, _, _) when r < nregs -> Bits.add live r
        | Cfg.Tret (Some (Ir.R r)) when r < nregs -> Bits.add live r
        | _ -> ());
        let mark = function Ir.R r when r < nregs -> Bits.add live r | _ -> () in
        let kept = ref [] in
        List.iter
          (fun ins ->
            let d = Ir.def_reg ins in
            if
              d >= 0 && d < nregs
              && (not (Bits.mem live d))
              && Cfg.speculable ins
            then begin
              incr events;
              deleted := true
            end
            else begin
              if d >= 0 && d < nregs then Bits.remove live d;
              Ir.iter_uses mark ins;
              kept := ins :: !kept
            end)
          (List.rev b.Cfg.instrs);
        b.Cfg.instrs <- !kept)
      cfg.Cfg.blocks
  done;
  !events
