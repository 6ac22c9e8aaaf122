(** Tprof's collection core: an always-available, zero-cost-when-off
    probe that the VM, the JIT, and the supervision layer report into.

    Two independent switches share one hot-path flag:

    - [on] — profiling: per-function counters (calls, retired
      instructions self/total over a shadow call stack, branches,
      allocations/bytes, redzone checks) and compile-phase metrics.
    - [tracing] — event log: a bounded ring buffer of call/return,
      alloc/free, transaction, fault, and breaker events, exportable as
      Chrome [trace_event] JSON or a deterministic text dump.

    Everything observable is driven by a *virtual clock* — one tick per
    retired VM instruction — so two runs of the same program produce
    byte-identical profiles and traces.  Wall-clock time is collected
    only for compile phases and is excluded from the deterministic text
    renderings (it appears in the JSON report for humans).

    The probe never touches the modeled machine: enabling it cannot
    change fuel accounting, the instruction stream, or program results
    (the differential tests in [test_tprof.ml] assert exactly this). *)

type event_kind =
  | Ev_call of int  (** VM function id *)
  | Ev_ret of int
  | Ev_alloc of { addr : int; bytes : int }
  | Ev_free of { addr : int }
  | Ev_txn_begin
  | Ev_txn_commit
  | Ev_txn_rollback
  | Ev_fault of string  (** fault.* code of an injected fault *)
  | Ev_breaker of { key : string; state : string }
  | Ev_mark of string  (** generic annotation (compile phases, user marks) *)

type event = { ev_tick : int; ev_kind : event_kind }

(** Per-function counters, keyed by VM function id. *)
type fstat = {
  fs_id : int;
  mutable fs_name : string;
  mutable fs_calls : int;
  mutable fs_self : int;  (** retired instructions attributed directly *)
  mutable fs_total : int;  (** inclusive (self + callees), recursion-safe *)
  mutable fs_branches : int;  (** Jmp/Br instructions retired *)
  mutable fs_allocs : int;
  mutable fs_alloc_bytes : int;
  mutable fs_frees : int;
  mutable fs_redzone : int;  (** sanitizer shadow checks issued *)
  mutable fs_active : int;  (** live frames on the shadow stack *)
}

type frame = { fr_stat : fstat; fr_entry : int  (** tick at entry *) }

(** Caller→callee attribution for the call-graph profile. *)
type estat = { mutable es_calls : int; mutable es_ticks : int }

(** A compile-phase metric: count plus (non-deterministic) wall time. *)
type pstat = { mutable ps_count : int; mutable ps_ms : float }

type t = {
  mutable on : bool;
  mutable tracing : bool;
  mutable active : bool;  (** [on || tracing]: the single hot-path test *)
  mutable tick : int;  (** virtual clock: retired instructions observed *)
  mutable retired : int;  (** ticks observed while [on] *)
  stats : (int, fstat) Hashtbl.t;
  mutable stack : frame list;  (** shadow call stack, innermost first *)
  edges : (int * int, estat) Hashtbl.t;
  (* global heap counters (also broken down per function above) *)
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable frees : int;
  mutable redzone : int;
  (* compile-phase metrics *)
  phases : (string, pstat) Hashtbl.t;
  mutable phase_order : string list;  (** reverse first-seen order *)
  (* event ring buffer *)
  ring : event array;
  mutable ring_count : int;  (** events ever recorded *)
}

let default_ring = 1 lsl 16
let dummy_event = { ev_tick = 0; ev_kind = Ev_txn_begin }

let create ?(ring = default_ring) () =
  {
    on = false;
    tracing = false;
    active = false;
    tick = 0;
    retired = 0;
    stats = Hashtbl.create 32;
    stack = [];
    edges = Hashtbl.create 32;
    allocs = 0;
    alloc_bytes = 0;
    frees = 0;
    redzone = 0;
    phases = Hashtbl.create 8;
    phase_order = [];
    ring = Array.make (max 16 ring) dummy_event;
    ring_count = 0;
  }

let set_on t b =
  t.on <- b;
  t.active <- t.on || t.tracing

let set_tracing t b =
  t.tracing <- b;
  t.active <- t.on || t.tracing

(** Clear all collected data (counters, stack, events, clock), keeping
    the on/tracing switches as they are.  Must not be called from inside
    a profiled VM call: live frames would leak attribution. *)
let reset t =
  t.tick <- 0;
  t.retired <- 0;
  Hashtbl.reset t.stats;
  t.stack <- [];
  Hashtbl.reset t.edges;
  t.allocs <- 0;
  t.alloc_bytes <- 0;
  t.frees <- 0;
  t.redzone <- 0;
  Hashtbl.reset t.phases;
  t.phase_order <- [];
  t.ring_count <- 0

(* ------------------------------------------------------------------ *)
(* Events *)

let push_event t kind =
  let n = Array.length t.ring in
  t.ring.(t.ring_count mod n) <- { ev_tick = t.tick; ev_kind = kind };
  t.ring_count <- t.ring_count + 1

(** Events dropped because the ring wrapped. *)
let dropped_events t = max 0 (t.ring_count - Array.length t.ring)

(** The retained events, oldest first. *)
let events t =
  let n = Array.length t.ring in
  let kept = min t.ring_count n in
  let first = t.ring_count - kept in
  List.init kept (fun i -> t.ring.((first + i) mod n))

(* ------------------------------------------------------------------ *)
(* Hot-path probes (guard with [t.active] at the call site) *)

let stat t id name =
  match Hashtbl.find_opt t.stats id with
  | Some s ->
      (* a VM slot can be redefined (declare → set_func); keep the
         latest name so reports match the code that actually ran *)
      if s.fs_name <> name then s.fs_name <- name;
      s
  | None ->
      let s =
        {
          fs_id = id;
          fs_name = name;
          fs_calls = 0;
          fs_self = 0;
          fs_total = 0;
          fs_branches = 0;
          fs_allocs = 0;
          fs_alloc_bytes = 0;
          fs_frees = 0;
          fs_redzone = 0;
          fs_active = 0;
        }
      in
      Hashtbl.replace t.stats id s;
      s

(** One retired VM instruction: advance the virtual clock and attribute
    self time to the innermost frame. *)
let retire t =
  t.tick <- t.tick + 1;
  if t.on then begin
    t.retired <- t.retired + 1;
    match t.stack with
    | fr :: _ -> fr.fr_stat.fs_self <- fr.fr_stat.fs_self + 1
    | [] -> ()
  end

(** A retired branch instruction (counted on top of {!retire}). *)
let branch t =
  if t.on then
    match t.stack with
    | fr :: _ -> fr.fr_stat.fs_branches <- fr.fr_stat.fs_branches + 1
    | [] -> ()

(** Function entry. Returns [true] iff a shadow frame was pushed — the
    caller must pass that to {!leave} so a profiler toggled mid-call
    cannot unbalance the stack. *)
let enter t ~id ~name =
  if t.tracing then push_event t (Ev_call id);
  if t.on then begin
    let st = stat t id name in
    st.fs_calls <- st.fs_calls + 1;
    st.fs_active <- st.fs_active + 1;
    t.stack <- { fr_stat = st; fr_entry = t.tick } :: t.stack;
    true
  end
  else false

let edge t caller callee ticks =
  let key = (caller, callee) in
  let e =
    match Hashtbl.find_opt t.edges key with
    | Some e -> e
    | None ->
        let e = { es_calls = 0; es_ticks = 0 } in
        Hashtbl.replace t.edges key e;
        e
  in
  e.es_calls <- e.es_calls + 1;
  e.es_ticks <- e.es_ticks + ticks

(** Function exit (normal or unwinding); [pushed] is {!enter}'s result. *)
let leave t ~id ~pushed =
  if t.tracing then push_event t (Ev_ret id);
  if pushed then
    match t.stack with
    | [] -> ()
    | fr :: rest ->
        t.stack <- rest;
        let st = fr.fr_stat in
        let inclusive = t.tick - fr.fr_entry in
        st.fs_active <- st.fs_active - 1;
        (* recursion: inclusive time is added only when the outermost
           frame of this function returns, so totals never exceed the
           program total *)
        if st.fs_active = 0 then st.fs_total <- st.fs_total + inclusive;
        (match rest with
        | parent :: _ -> edge t parent.fr_stat.fs_id st.fs_id inclusive
        | [] -> ())

(* ------------------------------------------------------------------ *)
(* Heap, sanitizer, transaction, fault, and breaker probes *)

let alloc t ~addr ~bytes =
  if t.tracing then push_event t (Ev_alloc { addr; bytes });
  if t.on then begin
    t.allocs <- t.allocs + 1;
    t.alloc_bytes <- t.alloc_bytes + bytes;
    match t.stack with
    | fr :: _ ->
        fr.fr_stat.fs_allocs <- fr.fr_stat.fs_allocs + 1;
        fr.fr_stat.fs_alloc_bytes <- fr.fr_stat.fs_alloc_bytes + bytes
    | [] -> ()
  end

let free t ~addr =
  if t.tracing then push_event t (Ev_free { addr });
  if t.on then begin
    t.frees <- t.frees + 1;
    match t.stack with
    | fr :: _ -> fr.fr_stat.fs_frees <- fr.fr_stat.fs_frees + 1
    | [] -> ()
  end

let redzone_check t =
  if t.on then begin
    t.redzone <- t.redzone + 1;
    match t.stack with
    | fr :: _ -> fr.fr_stat.fs_redzone <- fr.fr_stat.fs_redzone + 1
    | [] -> ()
  end

let txn_begin t = if t.tracing then push_event t Ev_txn_begin
let txn_commit t = if t.tracing then push_event t Ev_txn_commit
let txn_rollback t = if t.tracing then push_event t Ev_txn_rollback
let fault t code = if t.tracing then push_event t (Ev_fault code)

let breaker t ~key ~state =
  if t.tracing then push_event t (Ev_breaker { key; state })

let mark t label = if t.tracing then push_event t (Ev_mark label)

(* ------------------------------------------------------------------ *)
(* Compile-phase metrics *)

let pstat t name =
  match Hashtbl.find_opt t.phases name with
  | Some p -> p
  | None ->
      let p = { ps_count = 0; ps_ms = 0.0 } in
      Hashtbl.replace t.phases name p;
      t.phase_order <- name :: t.phase_order;
      p

(** Count one occurrence of a compile-phase event (cache hit, pass run). *)
let phase_count t name =
  if t.on then begin
    let p = pstat t name in
    p.ps_count <- p.ps_count + 1
  end

(** Host time in seconds on the monotonic clock: the one clock behind
    every host-time measurement (compile phases here, Topt pass times).
    [Sys.time] would be process CPU time summed over all domains, which
    misattributes a phase's time once worker domains run alongside it,
    and misses time spent blocked. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(** Time [f] under phase [name] when profiling is on (wall time is kept
    out of the deterministic text report; see {!Report}). *)
let time t name f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let p = pstat t name in
        p.ps_count <- p.ps_count + 1;
        p.ps_ms <- p.ps_ms +. ((now () -. t0) *. 1000.0))
      f
  end

(** Phase names in first-seen order. *)
let phase_order t = List.rev t.phase_order
