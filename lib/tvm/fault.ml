(** Deterministic fault injection for the VM: a plan of failures that
    fire at exact points of execution, so tests can prove the system
    degrades gracefully when the heap or the machine misbehaves.  Each
    spec fires at most once. *)

type spec =
  | Fail_alloc of int
      (** fail the Nth program heap allocation (1-based) *)
  | Trap_at_step of int
      (** raise at the Nth retired VM instruction (absolute ordinal) *)
  | Poison_byte of { step : int; addr : int }
      (** at step N, poison one heap byte: in checked mode the byte
          becomes unaddressable (the next access is a [san.oob]); in
          unchecked mode the byte is silently corrupted *)
  | Stray_store of { step : int; addr : int }
      (** at step N, flip one arena byte past the rollback journal: a
          journal bug, which a rollback's fingerprint check must catch.
          For tests only; no CLI flag or protocol field arms it *)

exception Injected of spec * string

(** Stable diagnostic code for an injected fault. *)
let code = function
  | Fail_alloc _ -> "fault.alloc"
  | Trap_at_step _ -> "fault.trap"
  | Poison_byte _ -> "fault.poison"
  | Stray_store _ -> "fault.stray-store"

let describe = function
  | Fail_alloc n -> Printf.sprintf "injected allocation failure (allocation #%d)" n
  | Trap_at_step n -> Printf.sprintf "injected trap at VM step #%d" n
  | Poison_byte { step; addr } ->
      Printf.sprintf "injected poison of byte %#x at VM step #%d" addr step
  | Stray_store { step; addr } ->
      Printf.sprintf "injected unjournaled store to byte %#x at VM step #%d"
        addr step

type t = {
  mutable pending : spec list;
  mutable allocs : int;  (** heap allocations observed so far *)
  mutable next_step : int;  (** min step among pending step specs *)
}

let recompute t =
  t.next_step <-
    List.fold_left
      (fun acc s ->
        match s with
        | Trap_at_step n -> min acc n
        | Poison_byte { step; _ } | Stray_store { step; _ } -> min acc step
        | Fail_alloc _ -> acc)
      max_int t.pending

let create specs =
  let t = { pending = specs; allocs = 0; next_step = max_int } in
  recompute t;
  t

let add t spec =
  t.pending <- spec :: t.pending;
  recompute t

let next_step t = t.next_step
let pending t = t.pending

(** Heap allocations observed so far — the ordinal base for injecting a
    relative [Fail_alloc] into an already-running session. *)
let allocs t = t.allocs

(** Called on every program heap allocation; raises {!Injected} when an
    armed [Fail_alloc] matches this ordinal. *)
let on_alloc t =
  t.allocs <- t.allocs + 1;
  match
    List.find_opt
      (function Fail_alloc n -> n = t.allocs | _ -> false)
      t.pending
  with
  | Some s ->
      t.pending <- List.filter (fun x -> x != s) t.pending;
      raise (Injected (s, describe s))
  | None -> ()

(** Called when the VM's step counter reaches {!next_step}: applies all
    due poisons, then raises for a due trap (if any). *)
let fire_step t mem step =
  let due, rest =
    List.partition
      (function
        | Trap_at_step n -> n <= step
        | Poison_byte { step = n; _ } | Stray_store { step = n; _ } ->
            n <= step
        | Fail_alloc _ -> false)
      t.pending
  in
  t.pending <- rest;
  recompute t;
  let trap = ref None in
  List.iter
    (function
      | Poison_byte { addr; _ } -> (
          match Mem.shadow mem with
          | Some sh -> Shadow.poison sh addr
          | None -> Mem.corrupt_byte mem addr)
      | Stray_store { addr; _ } -> Mem.stray_store mem addr
      | Trap_at_step _ as s -> trap := Some s
      | Fail_alloc _ -> ())
    due;
  match !trap with Some s -> raise (Injected (s, describe s)) | None -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(* Relative Fail_alloc specs and step-based specs are armed against the
   session's running ordinals, so both the pending plan and the
   allocation count must survive a checkpoint/restore round trip. *)
let snapshot t = (t.pending, t.allocs)

let of_snapshot (pending, allocs) =
  let t = { pending; allocs; next_step = max_int } in
  recompute t;
  t
