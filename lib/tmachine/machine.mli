(** A modeled CPU: cache hierarchy + issue-port cost model, with reporting
    in the units the paper uses (cycles, seconds, GFLOPS, GB/s). *)

type t = { config : Config.t; cache : Cache.t; cost : Cost.t }

val create : Config.t -> t
val ivybridge : unit -> t
val reset : t -> unit

val load : t -> int -> int -> unit
val store : t -> int -> int -> unit
val prefetch : t -> int -> unit
val count : t -> Cost.op -> unit

(** Total modeled cycles: max of compute and effective memory cycles
    (bandwidth streaming + latency stalls discounted by OOO overlap). *)
val cycles : t -> float

val seconds : t -> float
val gflops : t -> float
val gbytes_per_sec : t -> float

type report = {
  r_cycles : float;
  r_seconds : float;
  r_gflops : float;
  r_gbps : float;
  r_flops : float;
  r_bytes : int;
  r_level_stats : (string * Cache.level_stats) list;
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit

(** [measure m f] resets counters, runs [f], and returns its result with
    the report for just that run. *)
val measure : t -> (unit -> 'a) -> 'a * report
