(** A fixed-size domain pool: a hand-rolled work queue over OCaml 5
    [Domain]s with a [Mutex]/[Condition] pair (Domainslib is not a
    dependency of this tree).  Consumers are the parallel autotuner
    search, [Supervise.Batch.run ~jobs], and the [terra_serve] request loop.

    Worker identity is the key design point: every job receives the
    index of the worker domain running it (0 .. size-1), so a caller
    can keep an array of worker-exclusive resources — one engine per
    worker — and jobs scheduled dynamically onto worker [w] only ever
    touch resource [w].  That turns "engines are not thread-safe" into
    a structural invariant instead of a locking problem.

    Jobs must not raise: {!map} catches and re-raises on the submitting
    domain; bare {!run} jobs that raise are dropped after noting the
    failure on stderr (a worker must never die, or the pool deadlocks).

    Workers block SIGINT and SIGTERM, so the [Sys.Break] that
    [Sys.catch_break] turns them into is raised on the submitting
    domain, which can act on it, and never aborts a running job. *)

type t = {
  size : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (int -> unit) Queue.t;  (** job, applied to the worker index *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

let rec worker_loop t i =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stopping: drain done *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (try job i
     with e ->
       prerr_endline ("tpool: worker job raised: " ^ Printexc.to_string e));
    worker_loop t i
  end

let block_signals () =
  try ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ])
  with Invalid_argument _ -> ()

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
    }
  in
  t.domains <-
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            block_signals ();
            worker_loop t i));
  t

(** Submit a fire-and-forget job.  The job runs on some worker domain
    and receives that worker's index. *)
let run t (job : int -> unit) =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.signal t.has_work;
  Mutex.unlock t.mutex

(** Stop accepting work, let the workers drain the queue, and join
    them.  Idempotent. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

(** Apply [f] to every element of [items] across the pool and return
    the results in input order — parallel execution, deterministic
    shape.  [f ~worker] receives the index of the worker domain running
    it, for worker-exclusive state.  The first job exception (in input
    order of completion) is re-raised here after all jobs settle.  Must
    not be called from a worker of the same pool (the caller blocks
    until every job has run). *)
let map_workers t (f : worker:int -> 'a -> 'b) (items : 'a array) : 'b array =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results : 'b option array = Array.make n None in
    let first_err : exn option ref = ref None in
    let remaining = ref n in
    let m = Mutex.create () in
    let all_done = Condition.create () in
    Array.iteri
      (fun idx item ->
        run t (fun w ->
            let r = try Ok (f ~worker:w item) with e -> Error e in
            Mutex.lock m;
            (match r with
            | Ok v -> results.(idx) <- Some v
            | Error e -> if !first_err = None then first_err := Some e);
            decr remaining;
            if !remaining = 0 then Condition.broadcast all_done;
            Mutex.unlock m))
      items;
    Mutex.lock m;
    while !remaining > 0 do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    (match !first_err with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(** {!map_workers} without the worker index. *)
let map t f items = map_workers t (fun ~worker:_ x -> f x) items

(** Create a pool, run [f] on it, always shut it down. *)
let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
