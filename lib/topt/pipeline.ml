(** The Topt pass pipeline: Compile → [optimize] → Vm.

    Level 0 is the identity.  Level 1 runs copy propagation, local
    simplification (fold/peephole/Lea-merge/fuse), DCE, and CFG cleanup.
    Level 2 adds CSE and LICM.  [checked] disables redundant-load
    elimination so sanitized runs observe every memory access; all other
    passes never add, delete, or reorder memory operations, so checked
    and unchecked builds otherwise produce identical code. *)

module Ir = Tvm.Ir

let timed stats name f =
  let t0 = Tprof.Probe.now () in
  let events = f () in
  Stats.note stats name events (Tprof.Probe.now () -. t0)

let optimize ?(level = 2) ?(checked = false) ?stats (f : Ir.func) : Ir.func =
  if level <= 0 || Array.length f.Ir.code = 0 then f
  else
    match Cfg.of_func f with
    | exception Cfg.Unsupported -> f
    | cfg ->
        let stats = match stats with Some s -> s | None -> Stats.create () in
        stats.Stats.s_funcs <- stats.Stats.s_funcs + 1;
        stats.Stats.s_before <- stats.Stats.s_before + Array.length f.Ir.code;
        let simplify_round () =
          timed stats "copyprop" (fun () -> Simplify.global_copyprop cfg);
          timed stats "simplify" (fun () ->
              Simplify.local_simplify cfg + Simplify.fuse_defs cfg)
        in
        simplify_round ();
        if level >= 2 then begin
          timed stats "cse" (fun () -> Cse.run ~allow_loads:(not checked) cfg);
          simplify_round ();
          timed stats "licm" (fun () -> Licm.run cfg);
          simplify_round ()
        end;
        timed stats "cfg" (fun () -> Cfg.simplify cfg);
        timed stats "dce" (fun () -> Dce.run cfg);
        timed stats "cfg" (fun () -> Cfg.simplify cfg);
        let out = Cfg.to_func cfg in
        stats.Stats.s_after <- stats.Stats.s_after + Array.length out.Ir.code;
        out
