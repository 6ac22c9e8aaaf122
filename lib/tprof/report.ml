(** Profile reports: a snapshot of a {!Probe.t} rendered as a flat
    profile plus a call-graph profile.

    The text rendering is fully deterministic — it contains only
    virtual-clock counts (retired instructions, calls, allocations,
    …), never wall time, and all rows are sorted by (self desc, name,
    id).  The JSON rendering additionally carries per-phase wall-time
    milliseconds for humans and dashboards; consumers that diff
    profiles should diff the text form or ignore the [ms] fields. *)

type frow = {
  f_id : int;
  f_name : string;
  f_calls : int;
  f_self : int;
  f_total : int;
  f_branches : int;
  f_allocs : int;
  f_alloc_bytes : int;
  f_frees : int;
  f_redzone : int;
}

type erow = {
  e_caller : string;
  e_callee : string;
  e_calls : int;
  e_ticks : int;  (** inclusive callee ticks attributed to this edge *)
}

type prow = { p_name : string; p_count : int; p_ms : float }

type t = {
  total : int;  (** retired instructions while profiling was on *)
  funcs : frow list;
  edges : erow list;
  phases : prow list;
  allocs : int;
  alloc_bytes : int;
  frees : int;
  redzone : int;
  events : int;  (** events recorded (including dropped) *)
  events_dropped : int;
}

let row_order a b =
  match compare b.f_self a.f_self with
  | 0 -> (
      match compare a.f_name b.f_name with
      | 0 -> compare a.f_id b.f_id
      | c -> c)
  | c -> c

let edge_order a b =
  match compare b.e_ticks a.e_ticks with
  | 0 -> (
      match compare a.e_caller b.e_caller with
      | 0 -> compare a.e_callee b.e_callee
      | c -> c)
  | c -> c

let of_probe ?(extra = []) ~name_of (p : Probe.t) =
  let funcs =
    Hashtbl.fold
      (fun id (s : Probe.fstat) acc ->
        {
          f_id = id;
          f_name = name_of id;
          f_calls = s.fs_calls;
          f_self = s.fs_self;
          f_total = s.fs_total;
          f_branches = s.fs_branches;
          f_allocs = s.fs_allocs;
          f_alloc_bytes = s.fs_alloc_bytes;
          f_frees = s.fs_frees;
          f_redzone = s.fs_redzone;
        }
        :: acc)
      p.stats []
    |> List.sort row_order
  in
  let edges =
    Hashtbl.fold
      (fun (caller, callee) (e : Probe.estat) acc ->
        {
          e_caller = name_of caller;
          e_callee = name_of callee;
          e_calls = e.es_calls;
          e_ticks = e.es_ticks;
        }
        :: acc)
      p.edges []
    |> List.sort edge_order
  in
  let phases =
    List.map
      (fun name ->
        let ps = Hashtbl.find p.phases name in
        { p_name = name; p_count = ps.Probe.ps_count; p_ms = ps.Probe.ps_ms })
      (Probe.phase_order p)
    @ extra
  in
  {
    total = p.retired;
    funcs;
    edges;
    phases;
    allocs = p.allocs;
    alloc_bytes = p.alloc_bytes;
    frees = p.frees;
    redzone = p.redzone;
    events = p.ring_count;
    events_dropped = Probe.dropped_events p;
  }

(* Sum rows that share [key], in first-seen order. *)
let sum_by key add rows =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt tbl k with
      | Some acc -> Hashtbl.replace tbl k (add acc r)
      | None ->
          Hashtbl.replace tbl k r;
          order := k :: !order)
    rows;
  List.rev_map (Hashtbl.find tbl) !order

(** One report for several profiled slices (a batch's requests): every
    counter is summed.  Each slice's function names must already be
    resolved, since its engine may reuse function ids for other
    functions afterwards; a function row is keyed by (name, id), an edge
    by its names, a phase by its name (rows keep first-seen order). *)
let merge (rs : t list) : t =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let funcs =
    sum_by
      (fun f -> (f.f_name, f.f_id))
      (fun a b ->
        {
          a with
          f_calls = a.f_calls + b.f_calls;
          f_self = a.f_self + b.f_self;
          f_total = a.f_total + b.f_total;
          f_branches = a.f_branches + b.f_branches;
          f_allocs = a.f_allocs + b.f_allocs;
          f_alloc_bytes = a.f_alloc_bytes + b.f_alloc_bytes;
          f_frees = a.f_frees + b.f_frees;
          f_redzone = a.f_redzone + b.f_redzone;
        })
      (List.concat_map (fun r -> r.funcs) rs)
    |> List.sort row_order
  in
  let edges =
    sum_by
      (fun e -> (e.e_caller, e.e_callee))
      (fun a b ->
        { a with e_calls = a.e_calls + b.e_calls; e_ticks = a.e_ticks + b.e_ticks })
      (List.concat_map (fun r -> r.edges) rs)
    |> List.sort edge_order
  in
  let phases =
    sum_by
      (fun p -> p.p_name)
      (fun a b -> { a with p_count = a.p_count + b.p_count; p_ms = a.p_ms +. b.p_ms })
      (List.concat_map (fun r -> r.phases) rs)
  in
  {
    total = sum (fun r -> r.total);
    funcs;
    edges;
    phases;
    allocs = sum (fun r -> r.allocs);
    alloc_bytes = sum (fun r -> r.alloc_bytes);
    frees = sum (fun r -> r.frees);
    redzone = sum (fun r -> r.redzone);
    events = sum (fun r -> r.events);
    events_dropped = sum (fun r -> r.events_dropped);
  }

(* ------------------------------------------------------------------ *)
(* Deterministic text rendering *)

let pct total n =
  if total = 0 then "0.0" else Printf.sprintf "%.1f" (100.0 *. float n /. float total)

let to_text r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== profile: flat (by self instructions) ==\n";
  pf "%12s %6s %12s %10s %8s %8s %s\n" "self" "self%" "total" "calls"
    "branches" "allocs" "function";
  List.iter
    (fun f ->
      pf "%12d %5s%% %12d %10d %8d %8d %s\n" f.f_self (pct r.total f.f_self)
        f.f_total f.f_calls f.f_branches f.f_allocs f.f_name)
    r.funcs;
  pf "%12d 100.0%% %12s %10s %8s %8s total retired\n" r.total "" "" "" "";
  pf "\n== profile: call graph (caller -> callee, by inclusive ticks) ==\n";
  if r.edges = [] then pf "(no calls between profiled functions)\n"
  else
    List.iter
      (fun e ->
        pf "%12d %10d  %s -> %s\n" e.e_ticks e.e_calls e.e_caller e.e_callee)
      r.edges;
  pf "\n== counters ==\n";
  pf "retired instructions: %d\n" r.total;
  pf "heap allocations:     %d (%d bytes)\n" r.allocs r.alloc_bytes;
  pf "heap frees:           %d\n" r.frees;
  pf "redzone checks:       %d\n" r.redzone;
  pf "trace events:         %d (%d dropped)\n" r.events r.events_dropped;
  if r.phases <> [] then begin
    (* phase wall-times are intentionally omitted: the text report must
       be byte-identical across runs *)
    pf "\n== compile phases (counts; wall time in JSON report) ==\n";
    List.iter (fun p -> pf "%10d  %s\n" p.p_count p.p_name) r.phases
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let to_json_value r =
  Json.Obj
    [
      ("schema", Json.Str "terra-prof-1");
      ("total_retired", Json.Int r.total);
      ( "functions",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("name", Json.Str f.f_name);
                   ("id", Json.Int f.f_id);
                   ("calls", Json.Int f.f_calls);
                   ("self", Json.Int f.f_self);
                   ("total", Json.Int f.f_total);
                   ("branches", Json.Int f.f_branches);
                   ("allocs", Json.Int f.f_allocs);
                   ("alloc_bytes", Json.Int f.f_alloc_bytes);
                   ("frees", Json.Int f.f_frees);
                   ("redzone_checks", Json.Int f.f_redzone);
                 ])
             r.funcs) );
      ( "edges",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("caller", Json.Str e.e_caller);
                   ("callee", Json.Str e.e_callee);
                   ("calls", Json.Int e.e_calls);
                   ("ticks", Json.Int e.e_ticks);
                 ])
             r.edges) );
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.p_name);
                   ("count", Json.Int p.p_count);
                   ("ms", Json.Float p.p_ms);
                 ])
             r.phases) );
      ( "counters",
        Json.Obj
          [
            ("allocs", Json.Int r.allocs);
            ("alloc_bytes", Json.Int r.alloc_bytes);
            ("frees", Json.Int r.frees);
            ("redzone_checks", Json.Int r.redzone);
            ("events", Json.Int r.events);
            ("events_dropped", Json.Int r.events_dropped);
          ] );
    ]

let to_json r = Json.to_string (to_json_value r)
