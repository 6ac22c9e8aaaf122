(** Dead-code elimination via global backward liveness.

    A register is live if some path reaches a use before a redefinition;
    instructions whose destination is dead are deleted when they are
    {!Cfg.speculable} — memory accesses, calls, [SpillTouch], and
    [Prefetch] always stay, both for sanitizer visibility and to keep the
    machine cost model honest about the code's memory behaviour. *)

module Ir = Tvm.Ir

let run (cfg : Cfg.t) : int =
  let nregs = max 1 cfg.Cfg.nregs in
  let events = ref 0 in
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.Cfg.bid b) cfg.Cfg.blocks;
  let deleted = ref true in
  while !deleted do
    deleted := false;
    (* per-block use/def summary *)
    let summaries = Hashtbl.create 16 in
    List.iter
      (fun b ->
        let use = Array.make nregs false in
        let def = Array.make nregs false in
        let see_use r = if r < nregs && not def.(r) then use.(r) <- true in
        List.iter
          (fun ins ->
            List.iter see_use (Ir.reg_uses ins);
            match Ir.def ins with
            | Some d when d < nregs -> def.(d) <- true
            | _ -> ())
          b.Cfg.instrs;
        (match b.Cfg.term with
        | Cfg.Tbr (Ir.R r, _, _) -> see_use r
        | Cfg.Tret (Some (Ir.R r)) -> see_use r
        | _ -> ());
        Hashtbl.replace summaries b.Cfg.bid (use, def))
      cfg.Cfg.blocks;
    (* fixpoint: live_in = use ∪ (live_out − def) *)
    let live_in = Hashtbl.create 16 in
    let live_out = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Hashtbl.replace live_in b.Cfg.bid (Array.make nregs false);
        Hashtbl.replace live_out b.Cfg.bid (Array.make nregs false))
      cfg.Cfg.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let out = Hashtbl.find live_out b.Cfg.bid in
          List.iter
            (fun s ->
              match Hashtbl.find_opt live_in s with
              | Some sin ->
                  for r = 0 to nregs - 1 do
                    if sin.(r) && not out.(r) then begin
                      out.(r) <- true;
                      changed := true
                    end
                  done
              | None -> ())
            (Cfg.succs b);
          let use, def = Hashtbl.find summaries b.Cfg.bid in
          let inb = Hashtbl.find live_in b.Cfg.bid in
          for r = 0 to nregs - 1 do
            let v = use.(r) || (out.(r) && not def.(r)) in
            if v && not inb.(r) then begin
              inb.(r) <- true;
              changed := true
            end
          done)
        cfg.Cfg.blocks
    done;
    (* backward in-block sweep *)
    List.iter
      (fun b ->
        let live = Array.copy (Hashtbl.find live_out b.Cfg.bid) in
        (match b.Cfg.term with
        | Cfg.Tbr (Ir.R r, _, _) when r < nregs -> live.(r) <- true
        | Cfg.Tret (Some (Ir.R r)) when r < nregs -> live.(r) <- true
        | _ -> ());
        let kept = ref [] in
        List.iter
          (fun ins ->
            match Ir.def ins with
            | Some d
              when d < nregs && (not live.(d)) && Cfg.speculable ins ->
                incr events;
                deleted := true
            | _ ->
                (match Ir.def ins with
                | Some d when d < nregs -> live.(d) <- false
                | _ -> ());
                List.iter
                  (fun r -> if r < nregs then live.(r) <- true)
                  (Ir.reg_uses ins);
                kept := ins :: !kept)
          (List.rev b.Cfg.instrs);
        b.Cfg.instrs <- !kept)
      cfg.Cfg.blocks
  done;
  !events
