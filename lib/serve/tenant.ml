(** Per-tenant accounting and admission control.

    A tenant is the unit of blame: it owns resource budgets (per-request
    and cumulative fuel, committed heap growth, call depth, in-flight
    slots), usage counters, and a {!Supervise.Policy} circuit breaker
    keyed by the tenant name.  Admission is decided *before* an engine
    is touched, so an over-budget tenant costs the server one table
    lookup, not one execution; rejections are structured
    [serve.rejected] diagnostics that mirror the shape of every other
    failure in the system. *)

module Json = Tprof.Json
module Diag = Terra.Diag
module Policy = Supervise.Policy

type budget = {
  fuel_per_request : int;  (** watchdog cap on any single request *)
  fuel_total : int;  (** lifetime retired-instruction budget *)
  mem_bytes : int;  (** lifetime committed heap-growth allowance *)
  max_call_depth : int option;  (** per-request call-depth cap *)
  max_inflight : int;  (** concurrent admissions *)
  max_retries : int;  (** transient-fault retries per request *)
  breaker : Policy.breaker_config;
}

(** Generous defaults: big enough that a well-behaved tenant never
    notices them, finite so a runaway one always hits a wall. *)
let default_budget =
  {
    fuel_per_request = 2_000_000_000;
    fuel_total = max_int;
    mem_bytes = max_int;
    max_call_depth = None;
    max_inflight = 1;
    max_retries = 2;
    breaker = Policy.default_breaker_config;
  }

type t = {
  name : string;
  lock : Mutex.t;
      (** guards the counters below; {!table}-made tenants share the
          table's lock, so cross-tenant accounting is serialized too *)
  mutable budget : budget;
  breaker : Policy.breaker;
  mutable inflight : int;
  mutable admitted : int;  (** requests that passed admission *)
  mutable rejected : int;  (** requests bounced by admission control *)
  mutable completed : int;
  mutable failed : int;  (** completed with an error result *)
  mutable fuel_spent : int;  (** retired instructions across all requests *)
  mutable mem_used : int;  (** committed heap growth attributed here *)
  mutable leaked_bytes : int;  (** bytes this tenant's requests leaked *)
}

let create ?(lock = Mutex.create ()) ~name ~budget () =
  {
    name;
    lock;
    budget;
    breaker = Policy.breaker ~config:budget.breaker ();
    inflight = 0;
    admitted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
    fuel_spent = 0;
    mem_used = 0;
    leaked_bytes = 0;
  }

(** The tenant table: tenants materialize on first reference with the
    server's default budget. *)
type table = {
  default_budget : budget;
  lock : Mutex.t;  (** guards the table and every tenant it creates *)
  tbl : (string, t) Hashtbl.t;
  mutable order : string list;  (** reverse first-seen order *)
}

let table ~default_budget =
  {
    default_budget;
    lock = Mutex.create ();
    tbl = Hashtbl.create 8;
    order = [];
  }

let with_lock (m : Mutex.t) f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let find table name =
  with_lock table.lock (fun () ->
      match Hashtbl.find_opt table.tbl name with
      | Some t -> t
      | None ->
          let t =
            create ~lock:table.lock ~name ~budget:table.default_budget ()
          in
          Hashtbl.replace table.tbl name t;
          table.order <- name :: table.order;
          t)

(** Tenants in first-seen order (deterministic status output). *)
let all table =
  with_lock table.lock (fun () ->
      List.rev_map (fun n -> Hashtbl.find table.tbl n) table.order)

let rejected_diag t fmt =
  Printf.ksprintf
    (fun why ->
      t.rejected <- t.rejected + 1;
      Diag.make ~phase:Diag.Run ~code:"serve.rejected"
        (Printf.sprintf "tenant '%s' over budget: %s; request rejected \
                         without execution" t.name why))
    fmt

(** Admission decision for a request asking for [req_fuel] (or the
    per-request default).  On [Ok fuel] the request is admitted with
    that fuel grant and counts against the in-flight budget until
    {!settle}. *)
let admit (t : t) ~req_fuel : (int, Diag.t) result =
  with_lock t.lock @@ fun () ->
  let b = t.budget in
  if t.inflight >= b.max_inflight then
    Error
      (rejected_diag t "%d request%s already in flight (budget %d)"
         t.inflight
         (if t.inflight = 1 then "" else "s")
         b.max_inflight)
  else if t.mem_used >= b.mem_bytes then
    Error
      (rejected_diag t "committed heap growth %d bytes (budget %d)"
         t.mem_used b.mem_bytes)
  else
    let remaining = b.fuel_total - t.fuel_spent in
    if remaining <= 0 then
      Error
        (rejected_diag t "fuel budget exhausted (%d of %d spent)"
           t.fuel_spent b.fuel_total)
    else
      let asked = Option.value req_fuel ~default:b.fuel_per_request in
      if asked > b.fuel_per_request then
        Error
          (rejected_diag t "requested fuel %d exceeds per-request cap %d"
             asked b.fuel_per_request)
      else begin
        t.inflight <- t.inflight + 1;
        t.admitted <- t.admitted + 1;
        Ok (min asked remaining)
      end

(** Whether the in-flight budget is used up by requests still running.
    The serve loop waits while this holds before it calls {!admit}, so
    the budget caps a tenant's concurrency rather than rejecting its
    requests.  With nothing in flight there is nothing to wait for: a
    zero budget is still {!admit}'s rejection. *)
let at_capacity (t : t) =
  with_lock t.lock (fun () ->
      t.inflight > 0 && t.inflight >= t.budget.max_inflight)

(** Replay support: impose a journaled admission instead of recomputing
    it.  Under [--workers N] the live decision depended on scheduling
    (which siblings were still in flight, which settlements had landed),
    so the WAL records the grant in each [begin] record and recovery
    books it verbatim. *)
let book_admission (t : t) ~grant : int =
  with_lock t.lock (fun () ->
      t.inflight <- t.inflight + 1;
      t.admitted <- t.admitted + 1);
  grant

(** Replay a journaled rejection: count it and reproduce the diagnostic
    shape of {!admit}'s refusal. *)
let book_rejection (t : t) : Diag.t =
  with_lock t.lock (fun () ->
      rejected_diag t "admission rejection replayed from the journal")

(** Book the outcome of an admitted request and release its in-flight
    slot. *)
let settle (t : t) ~fuel ~mem_delta ~leaked ~ok =
  with_lock t.lock (fun () ->
      t.inflight <- t.inflight - 1;
      t.completed <- t.completed + 1;
      if not ok then t.failed <- t.failed + 1;
      t.fuel_spent <- t.fuel_spent + fuel;
      t.mem_used <- t.mem_used + max 0 mem_delta;
      t.leaked_bytes <- t.leaked_bytes + leaked)

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** Marshalable image of a tenant: counters plus the breaker's logical
    clock and per-key states (sorted, for a deterministic image).
    Budgets are not captured — they come from the server config, which
    recovery verifies separately. *)
type snapshot = {
  ts_name : string;
  ts_admitted : int;
  ts_rejected : int;
  ts_completed : int;
  ts_failed : int;
  ts_fuel_spent : int;
  ts_mem_used : int;
  ts_leaked_bytes : int;
  ts_clock : int;
  ts_states : (string * Policy.breaker_state) list;
}

let snapshot (t : t) : snapshot =
  {
    ts_name = t.name;
    ts_admitted = t.admitted;
    ts_rejected = t.rejected;
    ts_completed = t.completed;
    ts_failed = t.failed;
    ts_fuel_spent = t.fuel_spent;
    ts_mem_used = t.mem_used;
    ts_leaked_bytes = t.leaked_bytes;
    ts_clock = t.breaker.Policy.clock;
    ts_states =
      List.sort compare
        (Hashtbl.fold
           (fun k v acc -> (k, v) :: acc)
           t.breaker.Policy.states []);
  }

(** Materialize a checkpointed tenant into [table] (preserving
    first-seen order when applied in snapshot order).  The single-
    threaded server checkpoints only between requests, so in-flight is
    always zero. *)
let restore (table : table) (s : snapshot) : unit =
  let t = find table s.ts_name in
  t.admitted <- s.ts_admitted;
  t.rejected <- s.ts_rejected;
  t.completed <- s.ts_completed;
  t.failed <- s.ts_failed;
  t.fuel_spent <- s.ts_fuel_spent;
  t.mem_used <- s.ts_mem_used;
  t.leaked_bytes <- s.ts_leaked_bytes;
  t.breaker.Policy.clock <- s.ts_clock;
  Hashtbl.reset t.breaker.Policy.states;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.breaker.Policy.states k v)
    s.ts_states

(* ------------------------------------------------------------------ *)
(* Introspection *)

let status_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("inflight", Json.Int t.inflight);
      ("admitted", Json.Int t.admitted);
      ("rejected", Json.Int t.rejected);
      ("completed", Json.Int t.completed);
      ("failed", Json.Int t.failed);
      ("fuel_spent", Json.Int t.fuel_spent);
      ("mem_used", Json.Int t.mem_used);
      ("leaked_bytes", Json.Int t.leaked_bytes);
    ]

(** Breaker states for every key this tenant's breaker has seen,
    deterministically ordered. *)
let breakers_json t =
  let keys =
    List.sort compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.breaker.Policy.states [])
  in
  Json.Obj
    [
      ("tenant", Json.Str t.name);
      ("clock", Json.Int t.breaker.Policy.clock);
      ( "keys",
        Json.List
          (List.map
             (fun k ->
               Json.Obj
                 [
                   ("key", Json.Str k);
                   ( "state",
                     Json.Str
                       (Policy.state_name (Policy.breaker_state t.breaker k))
                   );
                 ])
             keys) );
    ]
