(** Seeded input generators and their independent oracles.

    Every generator takes its randomness from a [Random.State.t] built
    from the run's seed, and computes the expected output in OCaml from
    the same parameters it writes into the program text — never by
    running the system under test. *)

type prog = { src : string; expected : string }

let pick rng a = a.(Random.State.int rng (Array.length a))
let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* scripts: Lua-Terra programs of 6-12 functions *)

(* Terra [int] is 32 bits.  Every shape keeps its intermediate values
   far below 2^31 and non-negative, so OCaml's native [/] and [mod]
   (which truncate like C) compute exactly what the VM computes. *)

type fn = {
  text : string;  (** Lua-Terra definition(s) *)
  eval : int -> int;  (** OCaml model of the function *)
  arg : int;  (** the tiny input it is called with *)
  int_result : bool;  (** false for the double-valued vector shape *)
}

let loop_fn rng k =
  let c0 = range rng 0 50 and c1 = range rng 1 9 and c2 = range rng 0 9 in
  let m = range rng 500 9000 in
  {
    text =
      Printf.sprintf
        "terra f%d(n : int) : int\n\
        \  var s = %d\n\
        \  for i = 0, n do\n\
        \    s = s + i * %d + %d\n\
        \  end\n\
        \  return s %% %d\n\
         end\n"
        k c0 c1 c2 m;
    eval =
      (fun n ->
        let s = ref c0 in
        for i = 0 to n - 1 do
          s := !s + (i * c1) + c2
        done;
        !s mod m);
    arg = range rng 1 12;
    int_result = true;
  }

let while_fn rng k =
  let cap = range rng 10 40 and c = range rng 2 9 and m = range rng 3 97 in
  {
    text =
      Printf.sprintf
        "terra f%d(n : int) : int\n\
        \  var c = 0\n\
        \  while n ~= 1 and c < %d do\n\
        \    if n %% 2 == 0 then n = n / 2 else n = 3 * n + 1 end\n\
        \    c = c + 1\n\
        \  end\n\
        \  return c * %d + n %% %d\n\
         end\n"
        k cap c m;
    eval =
      (fun n ->
        let n = ref n and steps = ref 0 in
        while !n <> 1 && !steps < cap do
          n := if !n mod 2 = 0 then !n / 2 else (3 * !n) + 1;
          incr steps
        done;
        (!steps * c) + (!n mod m));
    arg = range rng 2 60;
    int_result = true;
  }

(* No methods: [Types.wrap_cache] is process-global and never evicts, so
   a struct's method table would keep its functions — and through them
   the whole engine and its arena — alive for the rest of the process. *)
let struct_fn rng k =
  let a = range rng 0 20 and b = range rng 1 9 and km = range rng 1 9 in
  let m = range rng 100 9000 in
  {
    text =
      Printf.sprintf
        "struct S%d { a : int; b : int }\n\
         terra f%d(x : int) : int\n\
        \  var p = S%d { x + %d, x * %d }\n\
        \  p.b = p.b + p.a * %d\n\
        \  return (p.b - p.a) %% %d\n\
         end\n"
        k k k a b (km + 1) m;
    eval = (fun x -> ((((x + a) * km) + (x * b)) mod m));
    arg = range rng 0 30;
    int_result = true;
  }

(* quote/escape unrolling, expression form: a Lua loop builds a nested
   backtick expression spliced into the function body *)
let unroll_expr_fn rng k =
  let c = range rng 0 99 and u = range rng 3 12 and m = range rng 100 9000 in
  {
    text =
      Printf.sprintf
        "local function sum%d(x)\n\
        \  local e = `%d\n\
        \  for i = 1, %d do e = `[e] + [x] * i end\n\
        \  return e\n\
         end\n\
         terra f%d(x : int) : int return [sum%d(x)] %% %d end\n"
        k c u k k m;
    eval = (fun x -> (c + (x * u * (u + 1) / 2)) mod m);
    arg = range rng 0 50;
    int_result = true;
  }

(* quote/escape unrolling, statement form: a list of quotes spliced as
   statements that declare and update a Terra local through a symbol *)
let unroll_stmt_fn rng k =
  let c0 = range rng 0 99 and u = range rng 2 10 and c = range rng 0 9 in
  let m = range rng 100 9000 in
  {
    text =
      Printf.sprintf
        "local s%d = symbol(int, \"s\")\n\
         local function acc%d(x)\n\
        \  local stmts = terralib.newlist()\n\
        \  stmts:insert(quote var [s%d] = %d end)\n\
        \  for i = 1, %d do stmts:insert(quote [s%d] = [s%d] + [x] * i + %d end) end\n\
        \  return stmts\n\
         end\n\
         terra f%d(x : int) : int\n\
        \  [ acc%d(x) ]\n\
        \  return [s%d] %% %d\n\
         end\n"
        k k k c0 u k k c k k k m;
    eval = (fun x -> (c0 + (x * u * (u + 1) / 2) + (u * c)) mod m);
    arg = range rng 0 50;
    int_result = true;
  }

(* nested Terra calls into two earlier int-valued functions *)
let call_fn rng k (earlier : (int * fn) list) =
  let i, fi = pick rng (Array.of_list earlier) in
  let j, fj = pick rng (Array.of_list earlier) in
  let c = range rng 1 9 and m = range rng 100 9000 in
  {
    text =
      Printf.sprintf
        "terra f%d(x : int) : int return (f%d(x) + f%d(x %% 7 + 1) * %d) %% %d end\n"
        k i j c m;
    eval = (fun x -> (fi.eval x + (fj.eval ((x mod 7) + 1) * c)) mod m);
    arg = range rng 0 40;
    int_result = true;
  }

let vector_fn rng k =
  let c = range rng 1 9 in
  {
    text =
      Printf.sprintf
        "terra f%d(x : int) : double\n\
        \  var a = [vector(double, 4)]([double](x))\n\
        \  var b = [vector(double, 4)](%d.0)\n\
        \  var c = a * b + a\n\
        \  var buf : double[4]\n\
        \  @([&vector(double, 4)](&buf[0])) = c\n\
        \  return buf[0] + buf[1] + buf[2] + buf[3]\n\
         end\n"
        k c;
    eval = (fun x -> 4 * ((x * c) + x));
    arg = range rng 0 99;
    int_result = false;
  }

let script rng ~id =
  let nfns = range rng 6 12 in
  let fns = ref [] in
  for k = 1 to nfns do
    let ints = List.filter (fun (_, f) -> f.int_result) (List.rev !fns) in
    let f =
      match Random.State.int rng (if ints = [] then 6 else 7) with
      | 0 -> loop_fn rng k
      | 1 -> while_fn rng k
      | 2 -> struct_fn rng k
      | 3 -> unroll_expr_fn rng k
      | 4 -> unroll_stmt_fn rng k
      | 5 -> vector_fn rng k
      | _ -> call_fn rng k ints
    in
    fns := (k, f) :: !fns
  done;
  let fns = List.rev !fns in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "-- generated program %d\n" id);
  List.iter (fun (_, f) -> Buffer.add_string b f.text) fns;
  List.iter
    (fun (k, f) -> Buffer.add_string b (Printf.sprintf "print(f%d(%d))\n" k f.arg))
    fns;
  {
    src = Buffer.contents b;
    expected =
      String.concat ""
        (List.map (fun (_, f) -> Printf.sprintf "%d\n" (f.eval f.arg)) fns);
  }

let scripts ~seed n =
  let rng = Random.State.make [| seed; 0x5c |] in
  Array.init n (fun id -> script rng ~id)

(* ------------------------------------------------------------------ *)
(* mandelbrot: examples/programs/mandelbrot.t, resized, with a seeded
   sub-pixel shift of the view window *)

type view = { w : int; h : int; maxit : int; x0 : string; y0 : string }

(* The shift is under one pixel, so every seed renders essentially the
   same picture and costs the same work; the seed still changes the
   exact output the oracle must reproduce. *)
let view rng ~w ~h ~maxit =
  let fmt v = Printf.sprintf "%.17g" v in
  {
    w;
    h;
    maxit;
    x0 = fmt (-2.2 +. (Random.State.float rng 1.0 *. 3.0 /. float_of_int w));
    y0 = fmt (-1.2 +. (Random.State.float rng 1.0 *. 2.4 /. float_of_int h));
  }

let palette = " .:-=+*#%@"

let mandel_src v =
  Printf.sprintf
    {|local W, H = %d, %d
local MAXIT = %d
local X0, Y0 = %s, %s

terra escape_time(cr : double, ci : double) : int
  var zr, zi = 0.0, 0.0
  var it = 0
  while it < MAXIT and zr * zr + zi * zi < 4.0 do
    zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
    it = it + 1
  end
  return it
end

local palette = "%s"
for y = 0, H - 1 do
  local row = {}
  for x = 0, W - 1 do
    local cr = X0 + 3.0 * x / W
    local ci = Y0 + 2.4 * y / H
    local it = escape_time(cr, ci)
    local idx = 1 + math.floor((#palette - 1) * it / MAXIT)
    row[#row + 1] = string.sub(palette, idx, idx)
  end
  print(table.concat(row))
end
|}
    v.w v.h v.maxit v.x0 v.y0 palette

(** The oracle: the same escape-time render, in OCaml doubles. *)
let mandel_expected v =
  let x0 = float_of_string v.x0 and y0 = float_of_string v.y0 in
  let b = Buffer.create ((v.w + 1) * v.h) in
  let np = float_of_int (String.length palette - 1) in
  for y = 0 to v.h - 1 do
    for x = 0 to v.w - 1 do
      let cr = x0 +. (3.0 *. float_of_int x /. float_of_int v.w) in
      let ci = y0 +. (2.4 *. float_of_int y /. float_of_int v.h) in
      let zr = ref 0.0 and zi = ref 0.0 and it = ref 0 in
      while !it < v.maxit && (!zr *. !zr) +. (!zi *. !zi) < 4.0 do
        let nzr = (!zr *. !zr) -. (!zi *. !zi) +. cr in
        zi := (2.0 *. !zr *. !zi) +. ci;
        zr := nzr;
        incr it
      done;
      let idx = int_of_float (Float.floor (np *. float_of_int !it /. float_of_int v.maxit)) in
      Buffer.add_char b palette.[idx]
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* serve: the request stream *)

type expect = {
  e_status : string;
  e_code : string option;
  e_output : string;
  e_rollback : string option;
}

type request = { line : string; tenant : string; expect : expect }

let divzero_src = "terra d(n : int32) return 10 / n end print(d(0))"

(* One block of the mix, shuffled by the seed: 14 tiny good programs, 2
   mandelbrot renders and 4 divide-by-zero traps (70/10/20).  Fixing the
   counts per block keeps every seed's mix, and so its cost, the same. *)
let block : [ `Tiny | `Mandel | `Trap ] array =
  Array.concat [ Array.make 14 `Tiny; Array.make 2 `Mandel; Array.make 4 `Trap ]

(** An endless seeded request stream over [tenants] tenants.  Two
    consecutive requests never share a tenant (two may be in flight, and
    a tenant admits one at a time), and a trap only goes to a tenant
    whose previous request succeeded, so no circuit breaker (three
    consecutive failures) ever opens. *)
let requests ~seed ~tenants ~mandel =
  let rng = Random.State.make [| seed; 0x5e |] in
  let last_failed = Array.make tenants false in
  let last = ref (-1) in
  let queue = Queue.create () in
  let refill () =
    let b = Array.copy block in
    for i = Array.length b - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = b.(i) in
      b.(i) <- b.(j);
      b.(j) <- t
    done;
    Array.iter (fun k -> Queue.add k queue) b
  in
  fun () ->
    if Queue.is_empty queue then refill ();
    let kind = Queue.pop queue in
    let allowed =
      List.filter
        (fun t -> t <> !last && not (kind = `Trap && last_failed.(t)))
        (List.init tenants Fun.id)
    in
    let t = pick rng (Array.of_list allowed) in
    last := t;
    last_failed.(t) <- kind = `Trap;
    let tenant = Printf.sprintf "t%d" t in
    let module J = Tprof.Json in
    let run ?retries src =
      J.to_string
        (J.Obj
           ([ ("op", J.Str "run"); ("src", J.Str src); ("tenant", J.Str tenant) ]
           @ match retries with Some r -> [ ("retries", J.Int r) ] | None -> []))
    in
    let ok output =
      { e_status = "ok"; e_code = None; e_output = output; e_rollback = None }
    in
    match kind with
    | `Tiny ->
        let f = loop_fn rng 1 in
        let p = f.text ^ Printf.sprintf "print(f1(%d))\n" f.arg in
        { line = run p; tenant; expect = ok (Printf.sprintf "%d\n" (f.eval f.arg)) }
    | `Mandel ->
        let v = view rng ~w:(fst mandel) ~h:(snd mandel) ~maxit:48 in
        { line = run (mandel_src v); tenant; expect = ok (mandel_expected v) }
    | `Trap ->
        {
          line = run ~retries:0 divzero_src;
          tenant;
          expect =
            {
              e_status = "error";
              e_code = Some "trap.divzero";
              e_output = "";
              e_rollback = Some "verified";
            };
        }
