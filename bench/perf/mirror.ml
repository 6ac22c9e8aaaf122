(** Traced mirrors of the program's layer boundaries.

    The benchmark may not change [lib/], so the traced run measures each
    layer from outside: these functions repeat, call for call, what
    [Jit.ensure_compiled], [Jit.call_wrapped], [Engine.run],
    [Tuner.Gemm.run_gemm] and [Server.handle] do, through the same public
    functions, with a span around every call into the next layer down.
    With recording off ({!Spans.on} false) they are never installed: the
    untraced phases call the real entry points. *)

open Terra
module Vm = Tvm.Vm

(* ------------------------------------------------------------------ *)
(* tvm: one VM call, with its retired instructions and minor-heap words *)

let vm_call (ctx : Context.t) vmid argv =
  let vm = ctx.Context.vm in
  let s0 = vm.Vm.steps and w0 = Gc.minor_words () in
  let account () =
    Spans.add "tvm.instructions" (float_of_int (vm.Vm.steps - s0));
    Spans.add "tvm.minor_words" (Gc.minor_words () -. w0)
  in
  match Spans.span "tvm.call" (fun () -> Vm.call vm vmid argv) with
  | v ->
      account ();
      v
  | exception e ->
      account ();
      raise e

(* ------------------------------------------------------------------ *)
(* terra: Jit.ensure_compiled, split into typecheck / lower / optimize *)

let ensure_compiled (f : Func.t) =
  let ctx = f.Func.ctx in
  (* the persistent-cache and IR-dump branches are not mirrored; no
     workload configures them *)
  if ctx.Context.ccache <> None || ctx.Context.dump_ir <> Context.Dump_none then
    Jit.ensure_compiled f
  else begin
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let rec visit (g : Func.t) =
      if not (Hashtbl.mem visited g.Func.fid) then begin
        Hashtbl.replace visited g.Func.fid ();
        if g.Func.extern_name = None then begin
          let probe = g.Func.ctx.Context.vm.Vm.probe in
          Tprof.Probe.phase_count probe "jit.ensure";
          Tprof.Probe.phase_count probe
            (if g.Func.compiled then "jit.codecache.hit"
             else "jit.codecache.miss");
          let typed =
            Tprof.Probe.time probe "jit.typecheck" (fun () ->
                (* a typed function answers from its memo: not a span *)
                if g.Func.typed <> None then Typecheck.typecheck g
                else Spans.span "terra.typecheck" (fun () -> Typecheck.typecheck g))
          in
          if not g.Func.compiled then begin
            let result =
              Tprof.Probe.time probe "jit.compile" (fun () ->
                  Spans.span "terra.lower" (fun () ->
                      Compile.compile_func ~no_spill:g.Func.no_spill ctx
                        ~name:g.Func.name typed))
            in
            let optimized =
              Tprof.Probe.time probe "jit.optimize" (fun () ->
                  Spans.span "topt.optimize" (fun () ->
                      Topt.Pipeline.optimize ~level:ctx.Context.opt_level
                        ~checked:(Context.checked ctx)
                        ~stats:ctx.Context.opt_stats result.Compile.func))
            in
            Spans.add "terra.funcs_compiled" 1.0;
            Spans.add "topt.ir_instrs_in"
              (float_of_int (Array.length result.Compile.func.Tvm.Ir.code));
            Spans.add "topt.ir_instrs_out"
              (float_of_int (Array.length optimized.Tvm.Ir.code));
            Vm.set_func ctx.Context.vm g.Func.vmid optimized;
            g.Func.compiled <- true
          end;
          List.iter visit typed.Func.trefs
        end
      end
    in
    visit f
  end

(* Jit.call *)
let call (f : Func.t) (args : Mlua.Value.t list) =
  ensure_compiled f;
  let params, ret = Jit.func_param_types f in
  if List.length params <> List.length args then
    raise
      (Jit.Terra_error
         (Printf.sprintf "'%s' expects %d arguments, got %d" f.Func.name
            (List.length params) (List.length args)));
  let ctx = f.Func.ctx in
  let argv = List.map2 (fun ty v -> Ffi.to_vm ctx ty v) params args in
  match ret with
  | Types.Tstruct _ | Types.Tarray _ ->
      let dst =
        Tvm.Alloc.malloc ctx.Context.vm.Vm.alloc (max 1 (Types.sizeof ret))
      in
      let argv = Array.of_list (Vm.VI (Int64.of_int dst) :: argv) in
      ignore (vm_call ctx f.Func.vmid argv);
      [ Ffi.wrap_cdata ctx ret dst ]
  | Types.Tunit ->
      ignore (vm_call ctx f.Func.vmid (Array.of_list argv));
      []
  | ret -> [ Ffi.of_vm ctx ret (vm_call ctx f.Func.vmid (Array.of_list argv)) ]

(* Jit.call_wrapped: the FFI entry every Lua-to-Terra call takes *)
let call_wrapped f args =
  Spans.add "terra.ffi_calls" 1.0;
  Spans.span "terra.ffi_call" (fun () ->
      try call f args with
      | Mlua.Value.Lua_error _ as e -> raise e
      | e -> (
          match Diag.of_exn e with
          | Some d -> raise (Mlua.Value.Lua_error (Diag.wrap d))
          | None -> raise e))

let real_call_impl = !Func.call_impl

(** Route Lua-to-Terra calls through the mirror (traced phase) or the
    JIT's own entry (untraced phase).  [Func.call_impl] is process-wide,
    so this also reaches engines inside an in-process server. *)
let set_traced b =
  Spans.on := b;
  Func.call_impl := if b then call_wrapped else real_call_impl

(* ------------------------------------------------------------------ *)
(* mlua: Engine.run, with Mlua.Driver.run_in split at parse / eval *)

let engine_run (t : Engine.t) src =
  Mlua.Interp.with_state t.Engine.interp (fun () ->
      let st = t.Engine.interp in
      let saved_depth = st.Mlua.Interp.max_call_depth in
      let saved_steps = st.Mlua.Interp.steps in
      let saved_diag = Diag.save_run_state () in
      let restore () =
        st.Mlua.Interp.max_call_depth <- saved_depth;
        st.Mlua.Interp.steps <- saved_steps;
        Diag.restore_run_state saved_diag
      in
      Diag.begin_run ();
      st.Mlua.Interp.max_call_depth <- t.Engine.lua_depth;
      st.Mlua.Interp.steps <- t.Engine.lua_steps;
      let ext_expr, ext_stat = Frontend.hooks t.Engine.ctx in
      match
        let block =
          Spans.span "mlua.parse" (fun () ->
              Mlua.Parser.parse_string ~ext_expr ~ext_stat src)
        in
        (* self time here is Lua evaluation plus eager specialization;
           the two cannot be separated from outside the interpreter *)
        Spans.span "mlua.eval" (fun () ->
            Mlua.Interp.push_frame "main chunk";
            match Mlua.Interp.exec_stats_in t.Engine.scope block with
            | () ->
                Mlua.Interp.pop_frame ();
                []
            | exception Mlua.Interp.Return_exc vs ->
                Mlua.Interp.pop_frame ();
                vs
            | exception e ->
                Mlua.Interp.save_traceback ();
                Mlua.Interp.pop_frame ();
                raise e)
      with
      | vs ->
          restore ();
          vs
      | exception ((Out_of_memory | Assert_failure _) as e) ->
          restore ();
          raise e
      | exception e ->
          let e = match Diag.of_exn e with Some d -> Diag.Error d | None -> e in
          restore ();
          raise e)

(* Engine.run_capture_protected *)
let run_capture_protected (t : Engine.t) src =
  Engine.with_capture t (fun () ->
      match engine_run t src with
      | vs -> Ok vs
      | exception ((Out_of_memory | Assert_failure _) as e) -> raise e
      | exception e -> (
          match Diag.of_exn e with
          | Some d -> Error d
          | None ->
              Error
                (Diag.make ~phase:Diag.Eval ~code:"internal.exn"
                   (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* Tuner.Gemm.run_gemm *)

let run_gemm (ctx : Context.t) (f : Func.t) (m : Tuner.Gemm.matrices) =
  ensure_compiled f;
  let args =
    [|
      Vm.VI (Int64.of_int m.Tuner.Gemm.msize);
      Vm.VI (Int64.of_int m.Tuner.Gemm.ma);
      Vm.VI (Int64.of_int m.Tuner.Gemm.mb);
      Vm.VI (Int64.of_int m.Tuner.Gemm.mc);
    |]
  in
  let (), report =
    Tmachine.Machine.measure ctx.Context.machine (fun () ->
        ignore (vm_call ctx f.Func.vmid args))
  in
  let flops = 2.0 *. (float_of_int m.Tuner.Gemm.msize ** 3.0) in
  (flops /. report.Tmachine.Machine.r_seconds /. 1e9, report)

(* ------------------------------------------------------------------ *)
(* serve: Server.handle for run requests *)

module S = Serve.Server

let checkpoints (t : S.t) =
  match t.S.journal with Some j -> j.Serve.Durable.checkpoints | None -> 0

let recycles (t : S.t) =
  let p = t.S.pool in
  p.Serve.Pool.recycled_wear + p.Serve.Pool.recycled_leak
  + p.Serve.Pool.recycled_fingerprint

(** [Server.handle] for a run (or malformed) request line; other ops are
    passed to the real handler. *)
let handle (t : S.t) (line : string) =
  let module P = Serve.Protocol in
  let module D = Serve.Durable in
  let ck = checkpoints t and rc = recycles t in
  match Spans.span "serve.parse" (fun () -> P.parse line) with
  | Ok (None | Some (P.Status | P.Profile | P.Breakers | P.Shutdown)) ->
      S.handle t line
  | (Error _ | Ok (Some (P.Run _))) as parsed ->
      let seq = ref 0 in
      let begun ~slot ~adm =
        seq := Spans.span "serve.wal" (fun () -> S.journal_begin t (D.Line line) ~slot ~adm)
      in
      let resp, fp =
        match parsed with
        | Ok (Some (P.Run r)) -> (
            match Spans.span "serve.admit" (fun () -> S.prepare_run t r) with
            | S.Rejected resp ->
                begun ~slot:None ~adm:D.Rejected;
                (resp, None)
            | S.No_source (resp, grant) ->
                begun ~slot:None ~adm:(D.Granted grant);
                (resp, None)
            | S.Admitted a ->
                let slot = Spans.span "serve.checkout" (fun () -> S.checkout_for_run t) in
                begun ~slot:(Some slot.Serve.Pool.id) ~adm:(D.Granted a.S.ad_grant);
                Spans.span "serve.execute" (fun () -> S.execute_admitted t r a slot))
        | Error d ->
            begun ~slot:None ~adm:D.Unrecorded;
            S.bump_served t;
            (P.error_json ~extra:P.no_engine_extra d, None)
        | Ok _ -> assert false
      in
      let i = if !Spans.on then Spans.enter "serve.wal" else -1 in
      S.journal_end t ~seq:!seq ~resp ~fp;
      if i >= 0 then begin
        Spans.leave i;
        (* a commit that crossed the interval also wrote a checkpoint *)
        if checkpoints t > ck then Spans.rename i "serve.ckpt"
      end;
      Spans.add "serve.checkpoints" (float_of_int (checkpoints t - ck));
      Spans.add "serve.recycles" (float_of_int (recycles t - rc));
      Some (resp, `Continue)
