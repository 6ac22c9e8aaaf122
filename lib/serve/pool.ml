(** The warm engine pool.

    Engines are expensive to build (terralib + DSL installers, shadow
    map, machine model), so the server keeps [size] of them warm and
    hands requests whichever is free, round-robin.  An engine is
    *recycled* — torn down and rebuilt from the factory — when it wears
    out ([recycle_after] requests, bounding statics/compiled-code
    growth on a shared session) or when a request leaves it anomalous: a
    leak the request refused to clean up, or a fingerprint that moved
    after a rolled-back failure.  Recycling is the containment of last
    resort: the tenant already got its diagnostic; the pool's job is to
    make sure the *next* tenant gets a pristine engine.

    A single mutex guards the whole pool: {!checkout} blocks until a
    slot is free (so [terra_serve --workers N] with more workers than
    engines degrades to waiting, never to a shared engine), and
    {!checkin} republishes the slot — including a full recycle, which
    happens under the lock so no domain ever observes a half-rebuilt
    engine. *)

module Json = Tprof.Json

type slot = {
  id : int;
  mutable eng : Terra.Engine.t;
  mutable served : int;  (** requests since the last recycle *)
  mutable total : int;  (** lifetime requests through this slot *)
  mutable recycles : int;
  mutable busy : bool;  (** checked out to a request right now *)
}

(** Why a slot was recycled, for ops visibility. *)
type anomaly = Leak | Fingerprint

type t = {
  make : unit -> Terra.Engine.t;
  slots : slot array;
  recycle_after : int;
  mutex : Mutex.t;
      (** the single pool lock: guards every slot flag and counter *)
  freed : Condition.t;  (** signaled when a slot becomes free *)
  mutable cursor : int;  (** round-robin start position *)
  mutable recycled_wear : int;
  mutable recycled_leak : int;
  mutable recycled_fingerprint : int;
}

let create ~make ~size ~recycle_after =
  {
    make;
    slots =
      Array.init (max 1 size) (fun id ->
          { id; eng = make (); served = 0; total = 0; recycles = 0; busy = false });
    recycle_after = max 1 recycle_after;
    mutex = Mutex.create ();
    freed = Condition.create ();
    cursor = 0;
    recycled_wear = 0;
    recycled_leak = 0;
    recycled_fingerprint = 0;
  }

let size t = Array.length t.slots

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(** Check out a free slot, round-robin; blocks until one is free.  A
    slot checked out here is exclusively owned by the caller until
    {!checkin} — the mutex hand-off is what makes an engine, which is
    not itself thread-safe, safe to run on whichever domain holds the
    slot. *)
let checkout t =
  let n = size t in
  let pick () =
    let rec go i =
      if i = n then None
      else
        let s = t.slots.((t.cursor + i) mod n) in
        if s.busy then go (i + 1) else Some s
    in
    go 0
  in
  Mutex.lock t.mutex;
  let rec wait () =
    match pick () with
    | Some s ->
        t.cursor <- (s.id + 1) mod n;
        s.busy <- true;
        Mutex.unlock t.mutex;
        s
    | None ->
        Condition.wait t.freed t.mutex;
        wait ()
  in
  wait ()

(** Check out a specific slot — recovery replay, where the WAL's [begin]
    record pinned the assignment the original run made.  Blocks until
    that slot is free and advances the round-robin cursor exactly as
    {!checkout} would have, so the pool's post-replay cursor matches the
    crashed run's. *)
let checkout_pinned t id =
  let n = size t in
  if id < 0 || id >= n then invalid_arg "Pool.checkout_pinned";
  let s = t.slots.(id) in
  Mutex.lock t.mutex;
  while s.busy do
    Condition.wait t.freed t.mutex
  done;
  t.cursor <- (id + 1) mod n;
  s.busy <- true;
  Mutex.unlock t.mutex;
  s

let recycle t (s : slot) =
  s.eng <- t.make ();
  s.served <- 0;
  s.recycles <- s.recycles + 1

(** Return a slot after a request.  [anomaly] forces a recycle;
    otherwise the slot is recycled only when it reaches the wear limit.
    [after] runs under the pool lock once any recycle has happened but
    before the slot is republished — the durable server uses it to read
    the slot's settled fingerprint for the WAL without racing the next
    checkout. *)
let checkin ?after t (s : slot) ~(anomaly : anomaly option) =
  with_lock t (fun () ->
      s.served <- s.served + 1;
      s.total <- s.total + 1;
      (match anomaly with
      | Some Leak ->
          t.recycled_leak <- t.recycled_leak + 1;
          recycle t s
      | Some Fingerprint ->
          t.recycled_fingerprint <- t.recycled_fingerprint + 1;
          recycle t s
      | None ->
          if s.served >= t.recycle_after then begin
            t.recycled_wear <- t.recycled_wear + 1;
            recycle t s
          end);
      (match after with Some f -> f s | None -> ());
      (* freed last: a recycled slot is only visible fully rebuilt *)
      s.busy <- false;
      Condition.signal t.freed)

let slot_live_bytes (s : slot) =
  Tvm.Alloc.live_bytes s.eng.Terra.Engine.ctx.Terra.Context.vm.Tvm.Vm.alloc

(** Total live heap bytes across the pool — the soak test's leak-growth
    gauge.  Like {!status_json} and {!final_leak_check}, this reads
    engine state and must only run while no slot is checked out to a
    running request (the parallel server quiesces first). *)
let live_bytes t =
  with_lock t (fun () ->
      Array.fold_left (fun acc s -> acc + slot_live_bytes s) 0 t.slots)

(** Every slot's engine must be leak-free at drain; returns the
    offending diagnostics (slot id, diag). *)
let final_leak_check t =
  with_lock t (fun () ->
      Array.fold_left
        (fun acc s ->
          match Terra.Engine.leak_diag s.eng with
          | Some d -> (s.id, d) :: acc
          | None -> acc)
        [] t.slots
      |> List.rev)

(* Fingerprinting a slot refreshes its engine's page-digest cache, which
   is engine state: the serve loop calls this quiesced, with every slot
   checked in, so no worker domain is using an engine meanwhile. *)
let status_json t =
  with_lock t @@ fun () ->
  Json.Obj
    [
      ("size", Json.Int (size t));
      ("recycle_after", Json.Int t.recycle_after);
      ("recycled_wear", Json.Int t.recycled_wear);
      ("recycled_leak", Json.Int t.recycled_leak);
      ("recycled_fingerprint", Json.Int t.recycled_fingerprint);
      ( "slots",
        Json.List
          (Array.to_list
             (Array.map
                (fun s ->
                  Json.Obj
                    [
                      ("id", Json.Int s.id);
                      ("served", Json.Int s.served);
                      ("total", Json.Int s.total);
                      ("recycles", Json.Int s.recycles);
                      ("live_bytes", Json.Int (slot_live_bytes s));
                      ( "fingerprint",
                        Json.Str (Terra.Engine.fingerprint s.eng) );
                    ])
                t.slots)) );
    ]

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** Marshalable per-slot counters; the engine itself is checkpointed by
    the server as an {!Terra.Engine.snapshot}. *)
type slot_meta = {
  sm_id : int;
  sm_served : int;
  sm_total : int;
  sm_recycles : int;
}

type meta = {
  pm_cursor : int;
  pm_recycled_wear : int;
  pm_recycled_leak : int;
  pm_recycled_fingerprint : int;
  pm_slots : slot_meta array;
}

let meta t =
  with_lock t @@ fun () ->
  {
    pm_cursor = t.cursor;
    pm_recycled_wear = t.recycled_wear;
    pm_recycled_leak = t.recycled_leak;
    pm_recycled_fingerprint = t.recycled_fingerprint;
    pm_slots =
      Array.map
        (fun s ->
          {
            sm_id = s.id;
            sm_served = s.served;
            sm_total = s.total;
            sm_recycles = s.recycles;
          })
        t.slots;
  }

(** Rebuild a pool from checkpointed counters and already-restored
    engines (one per slot, in slot order). *)
let restore ~make ~recycle_after (m : meta) (engines : Terra.Engine.t array)
    =
  {
    make;
    mutex = Mutex.create ();
    freed = Condition.create ();
    slots =
      Array.mapi
        (fun i (sm : slot_meta) ->
          {
            id = sm.sm_id;
            eng = engines.(i);
            served = sm.sm_served;
            total = sm.sm_total;
            recycles = sm.sm_recycles;
            busy = false;
          })
        m.pm_slots;
    recycle_after = max 1 recycle_after;
    cursor = m.pm_cursor;
    recycled_wear = m.pm_recycled_wear;
    recycled_leak = m.pm_recycled_leak;
    recycled_fingerprint = m.pm_recycled_fingerprint;
  }
