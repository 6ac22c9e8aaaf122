(* Execute a function from a saved Terra object file in a fresh VM with no
   Lua environment anywhere in the process: the paper's separate
   evaluation, demonstrated (Section 4.1 / terralib.saveobj).

   Exit codes, as for terra_run: 0 = success, 1 = diagnostic (bad object
   file, unknown export), 2 = runtime fault (a trap in the called code). *)

let run path fname args =
  let obj =
    try Terra.Objfile.load_file path
    with Terra.Diag.Error d ->
      Printf.eprintf "%s\n" (Terra.Diag.to_string d);
      exit 1
  in
  let vm, exports = Terra.Objfile.instantiate obj in
  match List.assoc_opt fname exports with
  | None ->
      Printf.eprintf "no export %s; available: %s\n" fname
        (String.concat ", " (List.map fst exports));
      exit 1
  | Some id -> (
      let argv =
        Array.of_list
          (List.map
             (fun a ->
               if String.contains a '.' then Tvm.Vm.VF (float_of_string a)
               else Tvm.Vm.VI (Int64.of_string a))
             args)
      in
      match Tvm.Vm.call vm id argv with
      | Tvm.Vm.VI i -> Printf.printf "%Ld\n" i
      | Tvm.Vm.VF f -> Printf.printf "%g\n" f
      | Tvm.Vm.VUnit -> ()
      | Tvm.Vm.VV v ->
          Array.iter (Printf.printf "%g ") v;
          print_newline ()
      | exception e -> (
          match Terra.Diag.of_exn e with
          | None -> raise e
          | Some d ->
              Printf.eprintf "%s\n" (Terra.Diag.to_string d);
              exit (if Terra.Diag.is_runtime_fault d then 2 else 1)))

let () =
  let open Cmdliner in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.tobj") in
  let fname = Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNCTION") in
  let args = Arg.(value & pos_right 1 string [] & info [] ~docv:"ARGS") in
  let cmd =
    Cmd.v
      (Cmd.info "tobj_run"
         ~doc:"run a function from a saved terra object file (no Lua)")
      Term.(const run $ path $ fname $ args)
  in
  exit (Cmd.eval cmd)
