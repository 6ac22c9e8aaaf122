(** The Topt pass pipeline: Compile → [optimize] → Vm.

    Level 0 is the identity.  Level 1 runs copy propagation, local
    simplification (fold/peephole/Lea-merge/fuse), DCE, and CFG cleanup.
    Level 2 adds CSE and LICM.  [checked] disables redundant-load
    elimination so sanitized runs observe every memory access; all other
    passes never add, delete, or reorder memory operations, so checked
    and unchecked builds otherwise produce identical code. *)

module Ir = Tvm.Ir

(** Run one pass, note its events and time in [stats], return its events. *)
let counted stats name f =
  let t0 = Tprof.Probe.now () in
  let events = f () in
  Stats.note stats name events (Tprof.Probe.now () -. t0);
  events

let timed stats name f = ignore (counted stats name f)

let optimize ?(level = 2) ?(checked = false) ?stats (f : Ir.func) : Ir.func =
  if level <= 0 || Array.length f.Ir.code = 0 then f
  else
    match Cfg.of_func f with
    | exception Cfg.Unsupported -> f
    | cfg ->
        let stats = match stats with Some s -> s | None -> Stats.create () in
        stats.Stats.s_funcs <- stats.Stats.s_funcs + 1;
        stats.Stats.s_before <- stats.Stats.s_before + Array.length f.Ir.code;
        (* Every rewrite counts an event, and a round's result depends
           only on the code it starts from.  So a round that counts none
           is a fixpoint, and the next one is skipped unless a pass in
           between rewrote something. *)
        let settled = ref false in
        let note_changes events = if events > 0 then settled := false in
        let simplify_round () =
          if not !settled then begin
            (* one def_info per round: copy propagation and local
               simplification keep its counts current for fusing *)
            let di = ref None in
            let copied =
              counted stats "copyprop" (fun () ->
                  let d = Cfg.def_info cfg in
                  di := Some d;
                  Simplify.global_copyprop cfg d)
            in
            let di = Option.get !di in
            let simplified =
              counted stats "simplify" (fun () ->
                  Simplify.local_simplify cfg di + Simplify.fuse_defs cfg di)
            in
            settled := copied + simplified = 0
          end
        in
        simplify_round ();
        if level >= 2 then begin
          note_changes
            (counted stats "cse" (fun () ->
                 Cse.run ~allow_loads:(not checked) cfg));
          simplify_round ();
          note_changes (counted stats "licm" (fun () -> Licm.run cfg));
          simplify_round ()
        end;
        timed stats "cfg" (fun () -> Cfg.simplify cfg);
        timed stats "dce" (fun () -> Dce.run cfg);
        timed stats "cfg" (fun () -> Cfg.simplify cfg);
        let out = Cfg.to_func cfg in
        stats.Stats.s_after <- stats.Stats.s_after + Array.length out.Ir.code;
        out
