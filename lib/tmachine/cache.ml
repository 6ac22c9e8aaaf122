type level_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_fills : int;
}

type level = {
  cfg : Config.cache_level;
  n_sets : int;
  assoc : int;
  lines : int array;  (** [set * assoc + way] = line tag, or -1 when empty *)
  ages : int array;  (** LRU ages parallel to [lines] *)
  stats : level_stats;
  mutable tick : int;
}

(* Stall accumulators, in an all-float record so the compiler stores
   them flat and an update never boxes a float. *)
type stalls = { mutable latency : float; mutable bandwidth : float }

type t = {
  config : Config.t;
  levels : level array;
  streams : int array;  (** last miss line per stream slot, for prefetch *)
  mutable stream_next : int;
  stalls : stalls;
  mutable bytes : int;
  mutable mem_lines : int;
}

let make_level cfg =
  let n_sets = max 1 (cfg.Config.size_bytes / (cfg.line_bytes * cfg.assoc)) in
  {
    cfg;
    n_sets;
    assoc = cfg.assoc;
    lines = Array.make (n_sets * cfg.assoc) (-1);
    ages = Array.make (n_sets * cfg.assoc) 0;
    stats = { hits = 0; misses = 0; prefetch_fills = 0 };
    tick = 0;
  }

let create config =
  {
    config;
    levels = Array.of_list (List.map make_level config.Config.levels);
    streams = Array.make 8 min_int;
    stream_next = 0;
    stalls = { latency = 0.0; bandwidth = 0.0 };
    bytes = 0;
    mem_lines = 0;
  }

let reset t =
  Array.iter
    (fun l ->
      Array.fill l.lines 0 (Array.length l.lines) (-1);
      l.stats.hits <- 0;
      l.stats.misses <- 0;
      l.stats.prefetch_fills <- 0;
      l.tick <- 0)
    t.levels;
  Array.fill t.streams 0 (Array.length t.streams) min_int;
  t.stalls.latency <- 0.0;
  t.stalls.bandwidth <- 0.0;
  t.bytes <- 0;
  t.mem_lines <- 0

(* Probe one level for [line]; on hit refresh LRU age. On miss insert the
   line, evicting the LRU way. Returns [true] on hit.
   The set index hashes in higher address bits (index hashing, as in real
   L2/L3 designs) so power-of-two-strided buffers do not all collide in
   one set — essential at scaled-down cache sizes.
   This and [touch_line] run on every modeled memory access, so both are
   plain loops: no local closure, no option. *)
let[@inline] probe_level level line =
  let n_sets = level.n_sets in
  let set_idx =
    (line lxor (line / n_sets) lxor (line / (n_sets * n_sets))) mod n_sets
  in
  let n = level.assoc and lines = level.lines and ages = level.ages in
  let base = set_idx * n in
  level.tick <- level.tick + 1;
  let w = ref 0 in
  while !w < n && lines.(base + !w) <> line do
    incr w
  done;
  if !w < n then begin
    ages.(base + !w) <- level.tick;
    true
  end
  else begin
    let victim = ref 0 in
    for w = 1 to n - 1 do
      if ages.(base + w) < ages.(base + !victim) then victim := w
    done;
    lines.(base + !victim) <- line;
    ages.(base + !victim) <- level.tick;
    false
  end

(* A line that missed every level comes from memory.  Stream detection:
   a miss one line after a previous miss is serviced by the hardware
   prefetcher at bandwidth cost. *)
let fetch_from_memory t line =
  t.mem_lines <- t.mem_lines + 1;
  let streaming = ref false in
  for s = 0 to Array.length t.streams - 1 do
    let last = t.streams.(s) in
    if (not !streaming) && line >= last && line <= last + 2 && last <> min_int
    then begin
      streaming := true;
      t.streams.(s) <- line
    end
  done;
  if not !streaming then begin
    t.streams.(t.stream_next) <- line;
    t.stream_next <- (t.stream_next + 1) mod Array.length t.streams
  end;
  if !streaming then
    t.stalls.bandwidth <-
      t.stalls.bandwidth
      +. float_of_int (List.hd t.config.Config.levels).Config.line_bytes
         /. t.config.mem_bytes_per_cycle
  else t.stalls.latency <- t.stalls.latency +. t.config.mem_latency_cycles

(* Walk the hierarchy for one line, charging the latency stall of the
   level that hits (or of memory). *)
let[@inline] touch_line t line ~count_stats =
  let nlevels = Array.length t.levels in
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < nlevels do
    let level = t.levels.(!i) in
    if probe_level level line then begin
      hit := true;
      if count_stats then level.stats.hits <- level.stats.hits + 1
      else level.stats.prefetch_fills <- level.stats.prefetch_fills + 1;
      if count_stats then
        t.stalls.latency <- t.stalls.latency +. level.cfg.hit_cycles
    end
    else begin
      if count_stats then level.stats.misses <- level.stats.misses + 1;
      incr i
    end
  done;
  if not !hit then fetch_from_memory t line

let line_bytes t =
  match t.config.Config.levels with [] -> 64 | l :: _ -> l.line_bytes

let access t ~write:_ addr bytes =
  t.bytes <- t.bytes + bytes;
  let lb = line_bytes t in
  let first = addr / lb and last = (addr + max 1 bytes - 1) / lb in
  for line = first to last do
    touch_line t line ~count_stats:true
  done

let prefetch t addr =
  let lb = line_bytes t in
  let saved_lat = t.stalls.latency in
  touch_line t (addr / lb) ~count_stats:false;
  (* prefetches do not stall the pipeline: roll back any latency charge,
     but keep the bandwidth cost of actually moving the line. *)
  t.stalls.latency <- saved_lat

let level_stats t =
  Array.to_list t.levels
  |> List.map (fun l -> (l.cfg.Config.level_name, l.stats))

let latency_stall_cycles t = t.stalls.latency
let bandwidth_cycles t = t.stalls.bandwidth
let bytes_accessed t = t.bytes
let mem_lines_fetched t = t.mem_lines
