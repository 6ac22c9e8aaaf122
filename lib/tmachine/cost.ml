type op =
  | Int_alu
  | Addr
  | Fp_add
  | Fp_mul
  | Fp_div
  | Load
  | Store
  | Branch
  | Call
  | Indirect_call
  | Spill
  | Other

(* The issue-slot counters.  An all-float record is stored flat, so
   each [+.] below updates a field in place instead of boxing a fresh
   float — the counters move on every retired instruction. *)
type counters = {
  mutable int_alu : float;
  mutable addr : float;
  mutable mul : float;  (** FP multiply issue slots, scalar or vector *)
  mutable add : float;
  mutable div : float;
  mutable loads : float;
  mutable stores : float;
  mutable branches : float;
  mutable calls : float;
  mutable flops : float;
  mutable other : float;
}

type t = {
  config : Config.t;
  c : counters;
  mutable last_vec_bits : int;
  mutable transitions : int;
}

let create config =
  {
    config;
    c =
      {
        int_alu = 0.;
        addr = 0.;
        mul = 0.;
        add = 0.;
        div = 0.;
        loads = 0.;
        stores = 0.;
        branches = 0.;
        calls = 0.;
        flops = 0.;
        other = 0.;
      };
    last_vec_bits = 0;
    transitions = 0;
  }

let reset t =
  let c = t.c in
  c.int_alu <- 0.;
  c.addr <- 0.;
  c.mul <- 0.;
  c.add <- 0.;
  c.div <- 0.;
  c.loads <- 0.;
  c.stores <- 0.;
  c.branches <- 0.;
  c.calls <- 0.;
  c.flops <- 0.;
  c.other <- 0.;
  t.last_vec_bits <- 0;
  t.transitions <- 0

let count t op =
  let c = t.c in
  match op with
  | Int_alu -> c.int_alu <- c.int_alu +. 1.
  | Addr -> c.addr <- c.addr +. 1.
  | Fp_add ->
      c.add <- c.add +. 1.;
      c.flops <- c.flops +. 1.
  | Fp_mul ->
      c.mul <- c.mul +. 1.;
      c.flops <- c.flops +. 1.
  | Fp_div ->
      c.div <- c.div +. 1.;
      c.flops <- c.flops +. 1.
  | Load -> c.loads <- c.loads +. 1.
  | Store -> c.stores <- c.stores +. 1.
  | Branch -> c.branches <- c.branches +. 1.
  | Call -> c.calls <- c.calls +. t.config.Config.call_cycles
  | Indirect_call ->
      c.calls <-
        c.calls +. t.config.Config.call_cycles
        +. t.config.Config.indirect_call_extra
  | Spill ->
      c.loads <- c.loads +. 1.;
      c.stores <- c.stores +. 1.
  | Other -> c.other <- c.other +. 1.

let vec_width_event t bits =
  if bits > 0 then begin
    if t.last_vec_bits <> 0 && t.last_vec_bits <> bits then
      t.transitions <- t.transitions + 1;
    t.last_vec_bits <- bits
  end

let add_vec_flops c lanes = c.flops <- c.flops +. float_of_int lanes

(* One call per vector instruction on the VM's hot path: the issue
   count, the flops, and the width event, without allocating. *)
let vec_add t ~lanes ~bits =
  let c = t.c in
  c.add <- c.add +. 1.;
  add_vec_flops c lanes;
  vec_width_event t bits

let vec_mul t ~lanes ~bits =
  let c = t.c in
  c.mul <- c.mul +. 1.;
  add_vec_flops c lanes;
  vec_width_event t bits

let vec_div t ~lanes ~bits =
  let c = t.c in
  c.div <- c.div +. 1.;
  add_vec_flops c lanes;
  vec_width_event t bits

let vec_other t ~bits =
  t.c.other <- t.c.other +. 1.;
  vec_width_event t bits

let flops t = t.c.flops
let add_flops t n = t.c.flops <- t.c.flops +. n

let uops t =
  let c = t.c in
  c.int_alu +. (c.addr /. 2.) +. c.mul +. c.add +. c.div +. c.loads
  +. c.stores +. c.branches +. c.other

let transition_penalty_cycles t =
  float_of_int t.transitions *. t.config.Config.vec_transition_cycles

(* Roofline over the issue ports: the binding port determines cycles. *)
let compute_cycles t =
  let c = t.config and n = t.c in
  let ( /? ) a b = if b <= 0. then 0. else a /. b in
  let candidates =
    [
      uops t /? c.Config.issue_width;
      n.mul /? c.fp_mul_per_cycle;
      n.add /? c.fp_add_per_cycle;
      n.div *. c.fp_div_cycles;
      n.loads /? c.loads_per_cycle;
      n.stores /? c.stores_per_cycle;
      n.int_alu /? c.int_ops_per_cycle;
      n.branches /? c.branches_per_cycle;
    ]
  in
  List.fold_left max 0. candidates
  +. n.calls +. transition_penalty_cycles t
