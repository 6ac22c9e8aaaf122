(* End-to-end tests of the Lua-facing DSL surfaces (Orion operators,
   javalike, DataTable): the paper's own usage patterns as programs. *)

let checks = Alcotest.(check string)
let quick name f = Alcotest.test_case name `Quick f

let run src =
  let e = Terrastd.create () in
  let out, _ = Terra.Engine.run_capture e src in
  String.trim out

let expect name src expected () = checks name expected (run src)

let orion_tests =
  [
    quick "figure 7 diffuse surface" (expect "diffuse"
        {|local N = 32
          function diffuse(x, x0, diff, dt)
            local a = dt * diff * N * N
            for k = 1, 2 do
              x = orion.materialize((x0 + a * (x(-1,0) + x(1,0) + x(0,-1) + x(0,1))) / (1 + 4 * a))
            end
            return x
          end
          local p = orion.compile(diffuse(orion.input(1), orion.input(0), 0.1, 0.2),
                                  { width = N, height = N, inputs = 2 })
          local x0 = p:buffer()
          x0:fill(function(i, j) return 1 end)
          local x = p:buffer()
          local out = p:buffer()
          p(x0, x, out)
          -- with x = 0 and x0 = 1 everywhere, interior converges near 1/(1+4a)... just check determinism
          local c1 = out:checksum()
          p(x0, x, out)
          print(c1 == out:checksum(), c1 > 0)|}
        "true\ttrue");
    quick "schedules agree through lua surface" (expect "sched"
        {|local function pipe(st)
            local x = orion.input(0)
            local by = st(0.25 * (x(0,-1) + x(0,1) + x(-1,0) + x(1,0)))
            return by(1,0) - by(0,0)
          end
          local function runit(st, vec)
            local p = orion.compile(pipe(st), { width = 64, height = 48, vectorize = vec })
            local inb = p:buffer()
            inb:fill(function(i, j) return math.sin(i * 0.3) * math.cos(j * 0.2) end)
            local out = p:buffer()
            p(inb, out)
            return out:checksum()
          end
          local a = runit(orion.materialize, 1)
          local b = runit(orion.linebuffer, 8)
          local c = runit(orion.inline, 4)
          -- inlining moves where the zero boundary applies, so its
          -- checksum differs slightly at the edges
          print(a == b, math.abs(a - c) < 0.01)|}
        "true\ttrue");
    quick "buffer get/set" (expect "buf"
        {|local p = orion.compile(orion.input(0) * 2, { width = 16, height = 16 })
          local inb = p:buffer()
          inb:set(3, 4, 21)
          local out = p:buffer()
          p(inb, out)
          print(out:get(3, 4), out:width(), out:height())|}
        "42\t16\t16");
  ]

let class_tests =
  [
    quick "paper class system surface" (expect "classes"
        {|J = javalike
          Drawable = J.interface { draw = {} -> int }
          struct Shape { }
          terra Shape:draw() : int return 0 end
          struct Square { length : int }
          J.extends(Square, Shape)
          J.implements(Square, Drawable)
          terra Square:draw() : int return self.length * self.length end
          terra drawit(s : &Shape) : int
            return s:draw()
          end
          terra go(len : int) : int
            var sq : Square
            sq:initvt()
            sq.length = len
            return drawit(&sq)
          end
          print(go(5), go(11))|}
        "25\t121");
    quick "heap objects via J.new" (expect "new"
        {|J = javalike
          struct Counter { n : int }
          terra Counter:bump() : int
            self.n = self.n + 1
            return self.n
          end
          -- adopt as class by using extends-free J.new
          terra viaptr(c : &Counter) : int
            return c:bump() + c:bump()
          end
          local obj = J.new(Counter)
          print(viaptr(obj))|}
        "3");
    quick "fields read back from lua" (expect "fields"
        {|J = javalike
          struct P { x : double }
          terra P:get() : double return self.x end
          local p = J.new(P)
          p.x = 6.5
          print(p.x)|}
        "6.5");
  ]

let datatable_tests =
  [
    quick "AoS and SoA behave identically" (expect "dt"
        {|local function total(layout)
            local T = DataTable({ a = float, b = float }, layout)
            local terra go(n : int64) : float
              var t : T
              t:init(n)
              for i = 0, n do
                var r = t:row(i)
                r:seta([float](i))
                r:setb(2.f)
              end
              var s = 0.f
              for i = 0, n do
                var r = t:row(i)
                s = s + r:a() * r:b()
              end
              t:free()
              return s
            end
            return go(20)
          end
          print(total("AoS"), total("SoA"))|}
        "380\t380");
    quick "unknown layout errors" (expect "err"
        {|print(pcall(function() return DataTable({ a = float }, "ZoZ") end))|}
        "false\tunknown layout ZoZ");
  ]

let () =
  Alcotest.run "surface"
    [
      ("orion", orion_tests);
      ("javalike", class_tests);
      ("datatable", datatable_tests);
    ]
