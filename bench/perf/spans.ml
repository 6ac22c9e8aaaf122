(** The traced run's span recorder.

    Spans are recorded from the benchmark's own files, around calls into
    each layer's public functions (see {!Mirror}); nothing inside the
    program under test is instrumented.  Every span carries its name,
    start and end on the monotonic clock, the span that caused it, and
    the op it belongs to (op 0 is set-up).  Spans stay in memory until
    the run ends, when {!chrome} renders them as Chrome [trace_event]
    JSON and {!breakdown} folds them into per-layer self times. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span; -1 for a root *)
  start : int;  (** ns, monotonic *)
  mutable stop : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Recording is off outside the traced phase: the mirrors then cost one
    branch per call. *)
let on = ref false

let op_id = ref 0
let dummy = { name = ""; op = 0; parent = -1; start = 0; stop = 0 }
let buf = ref (Array.make 4096 dummy)
let count = ref 0
let current = ref (-1)

let enter name =
  let i = !count in
  if i = Array.length !buf then begin
    let bigger = Array.make (2 * i) dummy in
    Array.blit !buf 0 bigger 0 i;
    buf := bigger
  end;
  !buf.(i) <- { name; op = !op_id; parent = !current; start = now_ns (); stop = 0 };
  count := i + 1;
  current := i;
  i

let leave i =
  let s = !buf.(i) in
  s.stop <- now_ns ();
  current := s.parent

let rename i name = !buf.(i) <- { !buf.(i) with name }

(** Run [f] inside a span named [name] (a plain call when recording is
    off).  The span closes on exceptions too: Lua errors routinely cross
    Terra calls on their way to a [pcall]. *)
let span name f =
  if not !on then f ()
  else
    let i = enter name in
    match f () with
    | v ->
        leave i;
        v
    | exception e ->
        leave i;
        raise e

(* ------------------------------------------------------------------ *)
(* Counters recorded at the same boundaries as the spans *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 16

(** Add [v] to counter [name]; only ops count (set-up work is traced
    but not normalised per op). *)
let add name v =
  if !on && !op_id > 0 then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.0

(* ------------------------------------------------------------------ *)
(* Folding spans into layer times *)

type layer = { calls : int; total_ns : int; self_ns : int }

type breakdown = {
  ops : int;  (** op root spans *)
  op_ns : int;  (** summed wall time of the op roots *)
  layers : (string * layer) list;  (** spans inside ops, by name *)
  setup_layers : (string * layer) list;  (** spans inside set-up *)
  probes : (string * layer) list;
      (** root spans outside any op: the harness's own side measurements
          (such as the extra fingerprint per served request) *)
}

(** Self time is a span's duration minus the part its children cover;
    children never outlive their parent, so the subtraction is exact. *)
let breakdown () =
  let n = !count in
  let child_ns = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = !buf.(i) in
    if s.parent >= 0 then
      child_ns.(s.parent) <- child_ns.(s.parent) + (s.stop - s.start)
  done;
  let ops = ref 0 and op_ns = ref 0 in
  let tbl_ops = Hashtbl.create 16
  and tbl_setup = Hashtbl.create 16
  and tbl_probes = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    let s = !buf.(i) in
    let dur = s.stop - s.start in
    if s.parent < 0 && s.name = "op" then begin
      incr ops;
      op_ns := !op_ns + dur
    end
    else begin
      let tbl =
        if s.parent < 0 then tbl_probes
        else if s.op > 0 then tbl_ops
        else tbl_setup
      in
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          calls = l.calls + 1;
          total_ns = l.total_ns + dur;
          self_ns = l.self_ns + dur - child_ns.(i);
        }
    end
  done;
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    ops = !ops;
    op_ns = !op_ns;
    layers = sorted tbl_ops;
    setup_layers = sorted tbl_setup;
    probes = sorted tbl_probes;
  }

let find l name =
  Option.value (List.assoc_opt name l)
    ~default:{ calls = 0; total_ns = 0; self_ns = 0 }

(** Chrome [trace_event] JSON (complete "X" events, microseconds) of the
    first [limit] spans, with each span's op id and parent index as
    arguments. *)
let chrome ~limit () =
  let module J = Tprof.Json in
  let t0 = if !count > 0 then !buf.(0).start else 0 in
  let us ns = J.Float (float_of_int ns /. 1000.0) in
  J.List
    (List.init (min limit !count) (fun i ->
         let s = !buf.(i) in
         J.Obj
           [
             ("name", J.Str s.name);
             ("cat", J.Str (if s.op > 0 then "op" else "setup"));
             ("ph", J.Str "X");
             ("ts", us (s.start - t0));
             ("dur", us (s.stop - s.start));
             ("pid", J.Int 1);
             ("tid", J.Int 1);
             ("args", J.Obj [ ("op", J.Int s.op); ("parent", J.Int s.parent) ]);
           ]))
