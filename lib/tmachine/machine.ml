type t = { config : Config.t; cache : Cache.t; cost : Cost.t }

let create config =
  { config; cache = Cache.create config; cost = Cost.create config }

let ivybridge () = create Config.ivybridge_like

let reset t =
  Cache.reset t.cache;
  Cost.reset t.cost

let load t addr bytes =
  Cost.count t.cost Cost.Load;
  Cache.access t.cache ~write:false addr bytes

let store t addr bytes =
  Cost.count t.cost Cost.Store;
  Cache.access t.cache ~write:true addr bytes

let prefetch t addr = Cache.prefetch t.cache addr
let count t op = Cost.count t.cost op

let cycles t =
  let compute = Cost.compute_cycles t.cost in
  let mem =
    Cache.bandwidth_cycles t.cache
    +. (Cache.latency_stall_cycles t.cache
       *. (1.0 -. t.config.Config.miss_overlap))
  in
  max compute mem

let seconds t = cycles t /. (t.config.Config.ghz *. 1e9)

let gflops t =
  let s = seconds t in
  if s <= 0. then 0. else Cost.flops t.cost /. s /. 1e9

let gbytes_per_sec t =
  let s = seconds t in
  if s <= 0. then 0.
  else float_of_int (Cache.bytes_accessed t.cache) /. s /. 1e9

type report = {
  r_cycles : float;
  r_seconds : float;
  r_gflops : float;
  r_gbps : float;
  r_flops : float;
  r_bytes : int;
  r_level_stats : (string * Cache.level_stats) list;
}

let report t =
  {
    r_cycles = cycles t;
    r_seconds = seconds t;
    r_gflops = gflops t;
    r_gbps = gbytes_per_sec t;
    r_flops = Cost.flops t.cost;
    r_bytes = Cache.bytes_accessed t.cache;
    r_level_stats = Cache.level_stats t.cache;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>cycles %.0f (%.6f s)@ %.2f GFLOPS, %.2f GB/s (%.0f flops, %d bytes)@ %a@]"
    r.r_cycles r.r_seconds r.r_gflops r.r_gbps r.r_flops r.r_bytes
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (n, s) ->
         Format.fprintf ppf "%s: %d hits / %d misses" n s.Cache.hits s.misses))
    r.r_level_stats

let measure t f =
  reset t;
  let x = f () in
  (x, report t)
