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
module IS = Cfg.IS

let run (cfg : Cfg.t) : int =
  let hoisted_total = ref 0 in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 3 do
    incr rounds;
    continue_ := false;
    let di = Cfg.def_info cfg in
    let dom = Cfg.dominators cfg in
    let preds = Cfg.preds cfg in
    let entry = Cfg.entry_bid cfg in
    (* def_blocks.(r): blocks containing a definition of r *)
    let def_blocks = Array.make (max 1 cfg.Cfg.nregs) IS.empty in
    for r = 0 to cfg.Cfg.nparams - 1 do
      def_blocks.(r) <- IS.singleton entry
    done;
    List.iter
      (fun b ->
        List.iter
          (fun ins ->
            match Ir.def ins with
            | Some d when d < Array.length def_blocks ->
                def_blocks.(d) <- IS.add b.Cfg.bid def_blocks.(d)
            | _ -> ())
          b.Cfg.instrs)
      cfg.Cfg.blocks;
    (* natural loops, grouped by header *)
    let loops : (int, IS.t ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun b ->
        List.iter
          (fun h ->
            if Cfg.dominates dom h b.Cfg.bid then begin
              let body =
                match Hashtbl.find_opt loops h with
                | Some s -> s
                | None ->
                    let s = ref (IS.singleton h) in
                    Hashtbl.replace loops h s;
                    s
              in
              (* walk predecessors back from the latch *)
              let stack = ref [ b.Cfg.bid ] in
              while !stack <> [] do
                let v = List.hd !stack in
                stack := List.tl !stack;
                if not (IS.mem v !body) then begin
                  body := IS.add v !body;
                  List.iter
                    (fun p -> stack := p :: !stack)
                    (Cfg.pred_list preds v)
                end
              done
            end)
          (Cfg.succs b))
      cfg.Cfg.blocks;
    (* innermost first: smaller loops before enclosing ones *)
    let loop_list =
      Hashtbl.fold (fun h s acc -> (h, !s) :: acc) loops []
      |> List.sort (fun (_, a) (_, b) -> compare (IS.cardinal a) (IS.cardinal b))
    in
    List.iter
      (fun (h, body) ->
        if h <> entry then begin
          let hoisted_regs = Hashtbl.create 8 in
          let invariant_op = function
            | Ir.Ki _ | Ir.Kf _ -> true
            | Ir.R r ->
                Hashtbl.mem hoisted_regs r
                || (r < Array.length def_blocks
                   && IS.is_empty (IS.inter def_blocks.(r) body)
                   && (r < cfg.Cfg.nparams
                      || IS.exists
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
                    (fun p -> not (IS.mem p body))
                    (Cfg.pred_list preds h)
                in
                let reuse =
                  match outside with
                  | [ p ] -> (
                      let pb = Cfg.find cfg p in
                      match pb.Cfg.term with
                      | Cfg.Tjmp l when l = h -> Some pb
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
                    (* redirect every outside edge into the header *)
                    List.iter
                      (fun b ->
                        if not (IS.mem b.Cfg.bid body) && b != ph then begin
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
                if IS.mem b.Cfg.bid body then begin
                  let keep = ref [] in
                  List.iter
                    (fun ins ->
                      let movable =
                        Cfg.speculable ins
                        && (match Ir.def ins with
                           | Some d ->
                               d < Array.length di.Cfg.def_counts
                               && di.Cfg.def_counts.(d) = 1
                           | None -> false)
                        && List.for_all invariant_op (Ir.uses ins)
                      in
                      if movable then begin
                        let ph = get_preheader () in
                        ph.Cfg.instrs <- ph.Cfg.instrs @ [ ins ];
                        (match Ir.def ins with
                        | Some d ->
                            Hashtbl.replace hoisted_regs d ();
                            if d < Array.length def_blocks then
                              def_blocks.(d) <- IS.singleton ph.Cfg.bid
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
  done;
  !hoisted_total
