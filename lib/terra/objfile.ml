(** [terralib.saveobj] substitute: serialize compiled Terra functions to a
    self-contained object file that runs in a fresh VM with *no Lua
    environment* — the paper's "separate evaluation" made concrete
    (Section 4.1: Terra code can be saved to a .o file and linked into C
    executables; here the .tobj runs under [tobj_run]). *)

module Ir = Tvm.Ir
module Vm = Tvm.Vm

type obj = {
  o_funcs : Ir.func array;  (** Call targets remapped to local ids *)
  o_imports : string array;
  o_exports : (string * int) list;
  o_statics : string;  (** snapshot of the static-data region *)
  o_statics_len : int;
  o_relocs : (int * int) list;
      (** function pointers embedded in static data (vtables):
          (offset into the snapshot, local function id) *)
}

let magic = "TERRAOBJ2\n"

(* A function-address immediate, when it names a function that exists:
   one of the first [nfuncs] ids.  Only operands of instructions that
   [Ir.carries_func_addr] are looked at; a literal 0x40000000 + 16k moved,
   stored, passed, returned or compared is still taken for function k. *)
let func_ref ~nfuncs = function
  | Ir.Ki k -> (
      match Ir.func_of_addr (Int64.to_int k) with
      | Some id when id < nfuncs -> Some id
      | _ -> None)
  | _ -> None

(* Gather the transitive closure of VM functions reachable from the
   exports, through direct calls, function-address immediates, and static
   function-pointer relocations (vtables). *)
let reachable vm roots =
  let nfuncs = vm.Vm.nfuncs in
  let order = ref [] in
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      Array.iter
        (fun ins ->
          (match ins with Ir.Call (_, target, _) -> visit target | _ -> ());
          if Ir.carries_func_addr ins then
            List.iter
              (fun o -> Option.iter visit (func_ref ~nfuncs o))
              (Ir.uses ins))
        (Vm.func vm id).Ir.code;
      order := id :: !order
    end
  in
  List.iter visit roots;
  List.rev !order

(* Renumber the functions and imports an instruction names: its call
   target, its import, and every function-address immediate it reads. *)
let remap_instr ~nfuncs map_f map_i (ins : Ir.instr) : Ir.instr =
  let op o =
    match func_ref ~nfuncs o with
    | Some id -> Ir.Ki (Int64.of_int (Ir.func_addr (map_f id)))
    | None -> o
  in
  match if Ir.carries_func_addr ins then Ir.map_uses op ins else ins with
  | Ir.Call (d, f, args) -> Ir.Call (d, map_f f, args)
  | Ir.Ccall (d, i, args) -> Ir.Ccall (d, map_i i, args)
  | ins -> ins

(** Build an object from compiled functions of a context. *)
let build (fns : (string * Func.t) list) : obj =
  match fns with
  | [] -> invalid_arg "saveobj: no functions"
  | (_, f0) :: _ ->
      let ctx = f0.Func.ctx in
      List.iter (fun (_, f) -> Jit.ensure_compiled f) fns;
      let vm = ctx.Context.vm in
      let statics_len = 1 lsl 18 in
      let in_snapshot a =
        a >= Tvm.Mem.statics_base && a + 8 <= Tvm.Mem.statics_base + statics_len
      in
      let relocs =
        List.filter (fun (a, _) -> in_snapshot a) ctx.Context.funcptr_relocs
      in
      let roots =
        List.map (fun (_, f) -> f.Func.vmid) fns @ List.map snd relocs
      in
      let ids = reachable vm roots in
      let fmap = Hashtbl.create 16 in
      List.iteri (fun i id -> Hashtbl.replace fmap id i) ids;
      let map_f id = Hashtbl.find fmap id in
      (* collect used imports *)
      let imports = ref [] in
      let imap = Hashtbl.create 16 in
      let map_i i =
        match Hashtbl.find_opt imap i with
        | Some j -> j
        | None ->
            let name = (vm.Vm.imports).(i) in
            let j = List.length !imports in
            imports := !imports @ [ name ];
            Hashtbl.replace imap i j;
            j
      in
      let funcs =
        List.map
          (fun id ->
            let f = Vm.func vm id in
            let code =
              Array.map (remap_instr ~nfuncs:vm.Vm.nfuncs map_f map_i) f.Ir.code
            in
            { f with Ir.code })
          ids
      in
      (* snapshot static data (interned strings, globals' initial values);
         statics past the mark are unallocated, hence zero *)
      let image = Tvm.Mem.statics_image vm.Vm.mem in
      let used =
        min statics_len (String.length image - Tvm.Mem.statics_base)
      in
      let buf = Buffer.create statics_len in
      Buffer.add_substring buf image Tvm.Mem.statics_base used;
      Buffer.add_string buf (String.make (statics_len - used) '\000');
      {
        o_funcs = Array.of_list funcs;
        o_imports = Array.of_list !imports;
        o_exports = List.map (fun (n, f) -> (n, map_f f.Func.vmid)) fns;
        o_statics = Buffer.contents buf;
        o_statics_len = statics_len;
        o_relocs =
          List.map
            (fun (a, vmid) -> (a - Tvm.Mem.statics_base, map_f vmid))
            relocs;
      }

(** Write an already-built object to a channel.  Exposed (rather than
    only [save]) so the corruption-fuzz tests can persist hand-crafted
    hostile objects and prove {!load_file} rejects them. *)
let write_channel oc (obj : obj) =
  Blobio.write_framed oc ~magic (Marshal.to_string obj [])

let save path fns =
  let obj = build fns in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc obj)

let bad_file path fmt =
  Printf.ksprintf
    (fun msg ->
      Diag.error ~phase:Diag.Compile ~code:"obj.bad-file" "%s: %s" path msg)
    fmt

(* Structural validation of an unmarshaled object.  The digest frame
   already rules out accidental corruption; this pass rules out hostile
   or buggy well-formed files whose indices would otherwise reach the
   VM's unchecked dispatch (function ids, import ids, register numbers,
   jump targets, reloc offsets). *)
let validate path (obj : obj) =
  let nfuncs = Array.length obj.o_funcs in
  let nimports = Array.length obj.o_imports in
  if nfuncs = 0 then bad_file path "object has no functions";
  if obj.o_statics_len <> String.length obj.o_statics then
    bad_file path "statics length field %d does not match snapshot size %d"
      obj.o_statics_len
      (String.length obj.o_statics);
  if obj.o_statics_len > (1 lsl 20) - Tvm.Mem.statics_base then
    bad_file path "statics snapshot of %d bytes exceeds the static region"
      obj.o_statics_len;
  Array.iteri
    (fun fid (f : Ir.func) ->
      match Ir.validate ~nfuncs ~nimports f with
      | Ok () -> ()
      | Error msg ->
          bad_file path "function %d (%s): %s" fid f.Ir.fname msg)
    obj.o_funcs;
  List.iter
    (fun (name, id) ->
      if id < 0 || id >= nfuncs then
        bad_file path "export %s: function id %d out of range" name id)
    obj.o_exports;
  List.iter
    (fun (off, id) ->
      if off < 0 || off + 8 > obj.o_statics_len then
        bad_file path "reloc offset %d out of range" off;
      if id < 0 || id >= nfuncs then
        bad_file path "reloc function id %d out of range" id)
    obj.o_relocs

let load_file path : obj =
  let ic =
    try open_in_bin path
    with Sys_error msg -> bad_file path "cannot open (%s)" msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Blobio.read_framed ic ~magic with
      | Error msg -> bad_file path "%s" msg
      | Ok payload ->
          let obj : obj = Marshal.from_string payload 0 in
          validate path obj;
          obj)

(** Load an object into a fresh VM (no Lua anywhere) and return the VM
    plus export name → function id. *)
let instantiate ?machine ?mem_bytes (obj : obj) =
  let machine =
    match machine with
    | Some m -> m
    | None -> Tmachine.Machine.ivybridge ()
  in
  let vm = Vm.create ?mem_bytes machine in
  Tvm.Builtins.install vm;
  (* restore statics: a fresh VM's first static is [statics_base] *)
  ignore (Tvm.Mem.alloc_static vm.Vm.mem ~align:1 obj.o_statics_len);
  String.iteri
    (fun i c -> Tvm.Mem.set_u8 vm.Vm.mem (Tvm.Mem.statics_base + i) (Char.code c))
    obj.o_statics;
  (* map local ids to fresh VM ids; they are assigned densely in order *)
  let first = Vm.declare_func vm obj.o_funcs.(0).Ir.fname in
  Array.iteri
    (fun i f -> if i > 0 then ignore (Vm.declare_func vm f.Ir.fname))
    obj.o_funcs;
  let map_f i = first + i in
  let map_i i = Vm.import vm obj.o_imports.(i) in
  let nfuncs = Array.length obj.o_funcs in
  Array.iteri
    (fun i f ->
      let code = Array.map (remap_instr ~nfuncs map_f map_i) f.Ir.code in
      Vm.set_func vm (first + i) { f with Ir.code })
    obj.o_funcs;
  (* patch function pointers embedded in static data (vtables) *)
  List.iter
    (fun (off, local) ->
      Tvm.Mem.set_i64 vm.Vm.mem
        (Tvm.Mem.statics_base + off)
        (Int64.of_int (Ir.func_addr (map_f local))))
    obj.o_relocs;
  (vm, List.map (fun (n, i) -> (n, first + i)) obj.o_exports)
