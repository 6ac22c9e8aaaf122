(** Loop-invariant code motion for natural loops.

    Back edges are found via dominators, loop bodies via the usual
    predecessor walk from the latch, and hoisting targets a preheader —
    an existing sole outside predecessor that jumps straight to the
    header, or a fresh block spliced in front of it.  Only {!Cfg.speculable}
    instructions move (never loads, stores, calls, or potentially-trapping
    division), each must define a register with exactly one static
    definition, and every operand must be invariant: constant, defined
    outside the loop in a block dominating the header, a parameter, or
    already hoisted this round.  Whole-CFG rounds repeat a few times so
    code hoisted into an inner preheader can continue to an outer one. *)

module Ir = Tvm.Ir
module Bits = Cfg.Bits

type loop = { body : Bits.t; mutable size : int }

let run (cfg : Cfg.t) : int =
  let hoisted_total = ref 0 in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 3 do
    incr rounds;
    continue_ := false;
    (* analyses of the CFG as the round starts; the round's own edits
       (preheaders) do not update them *)
    let dom = Cfg.dominators cfg in
    let sh = Cfg.shape cfg in
    let preds = sh.Cfg.preds in
    let entry = Cfg.entry_bid cfg in
    let nb = cfg.Cfg.next_bid in
    (* natural loops, grouped by header.  The table's fold order breaks
       ties between equal-size loops below, so it stays a Hashtbl. *)
    let loops : (int, loop) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun b ->
        Cfg.iter_succs
          (fun h ->
            if Cfg.dominates dom h b.Cfg.bid then begin
              let lp =
                match Hashtbl.find_opt loops h with
                | Some lp -> lp
                | None ->
                    let lp = { body = Bits.create nb; size = 1 } in
                    Bits.add lp.body h;
                    Hashtbl.replace loops h lp;
                    lp
              in
              (* walk predecessors back from the latch *)
              let stack = ref [ b.Cfg.bid ] in
              while !stack <> [] do
                let v = List.hd !stack in
                stack := List.tl !stack;
                if not (Bits.mem lp.body v) then begin
                  Bits.add lp.body v;
                  lp.size <- lp.size + 1;
                  List.iter
                    (fun p -> stack := p :: !stack)
                    (Cfg.pred_list preds v)
                end
              done
            end)
          b)
      cfg.Cfg.blocks;
    if Hashtbl.length loops > 0 then begin
      let di = Cfg.def_info cfg in
      let nregs = Array.length di.Cfg.def_counts in
      (* def_blocks.(r): blocks containing a definition of r *)
      let def_blocks = Array.make nregs [] in
      for r = 0 to cfg.Cfg.nparams - 1 do
        def_blocks.(r) <- [ entry ]
      done;
      List.iter
        (fun b ->
          List.iter
            (fun ins ->
              match Ir.def ins with
              | Some d when d < nregs ->
                  def_blocks.(d) <- b.Cfg.bid :: def_blocks.(d)
              | _ -> ())
            b.Cfg.instrs)
        cfg.Cfg.blocks;
      (* innermost first: smaller loops before enclosing ones *)
      let loop_list =
        Hashtbl.fold (fun h lp acc -> (h, lp) :: acc) loops []
        |> List.sort (fun (_, a) (_, b) -> Int.compare a.size b.size)
      in
      List.iter
        (fun (h, { body; _ }) ->
          if h <> entry then begin
            let hoisted_regs = Array.make nregs false in
            let invariant_op = function
              | Ir.Ki _ | Ir.Kf _ -> true
              | Ir.R r ->
                  r < nregs
                  && (hoisted_regs.(r)
                     || (not (List.exists (Bits.mem body) def_blocks.(r)))
                        && (r < cfg.Cfg.nparams
                           || List.exists
                                (fun db -> Cfg.dominates dom db h)
                                def_blocks.(r)))
            in
            let preheader = ref None in
            let get_preheader () =
              match !preheader with
              | Some ph -> ph
              | None -> (
                  let outside =
                    List.filter
                      (fun p -> not (Bits.mem body p))
                      (Cfg.pred_list preds h)
                  in
                  let reuse =
                    match outside with
                    | [ p ] -> (
                        match sh.Cfg.by_bid.(p) with
                        | Some ({ Cfg.term = Cfg.Tjmp l; _ } as pb) when l = h ->
                            Some pb
                        | _ -> None)
                    | _ -> None
                  in
                  match reuse with
                  | Some pb ->
                      preheader := Some pb;
                      pb
                  | None ->
                      let ph =
                        {
                          Cfg.bid = cfg.Cfg.next_bid;
                          instrs = [];
                          term = Cfg.Tjmp h;
                        }
                      in
                      cfg.Cfg.next_bid <- cfg.Cfg.next_bid + 1;
                      Cfg.invalidate cfg;
                      (* redirect every outside edge into the header *)
                      List.iter
                        (fun b ->
                          if not (Bits.mem body b.Cfg.bid) && b != ph then begin
                            let r l = if l = h then ph.Cfg.bid else l in
                            match b.Cfg.term with
                            | Cfg.Tjmp l -> b.Cfg.term <- Cfg.Tjmp (r l)
                            | Cfg.Tbr (c, a, b') ->
                                b.Cfg.term <- Cfg.Tbr (c, r a, r b')
                            | Cfg.Tret _ -> ()
                          end)
                        cfg.Cfg.blocks;
                      (* splice into layout immediately before the header *)
                      let rec ins_before = function
                        | [] -> [ ph ]
                        | b :: rest when b.Cfg.bid = h -> ph :: b :: rest
                        | b :: rest -> b :: ins_before rest
                      in
                      cfg.Cfg.blocks <- ins_before cfg.Cfg.blocks;
                      preheader := Some ph;
                      ph)
            in
            let changed = ref true in
            while !changed do
              changed := false;
              List.iter
                (fun b ->
                  if Bits.mem body b.Cfg.bid then begin
                    let keep = ref [] in
                    List.iter
                      (fun ins ->
                        let movable =
                          Cfg.speculable ins
                          && (match Ir.def ins with
                             | Some d -> d < nregs && di.Cfg.def_counts.(d) = 1
                             | None -> false)
                          && List.for_all invariant_op (Ir.uses ins)
                        in
                        if movable then begin
                          let ph = get_preheader () in
                          ph.Cfg.instrs <- ph.Cfg.instrs @ [ ins ];
                          (match Ir.def ins with
                          | Some d ->
                              hoisted_regs.(d) <- true;
                              def_blocks.(d) <- [ ph.Cfg.bid ]
                          | None -> ());
                          incr hoisted_total;
                          changed := true;
                          continue_ := true
                        end
                        else keep := ins :: !keep)
                      b.Cfg.instrs;
                    b.Cfg.instrs <- List.rev !keep
                  end)
                cfg.Cfg.blocks
            done
          end)
        loop_list
    end
  done;
  !hoisted_total
