(* Tests for the Lua-subset host language: lexer, parser, evaluator,
   metatables, and the standard library. *)

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* run a chunk, return everything printed (trailing newline trimmed) *)
let run src =
  let out, _ = Mlua.Driver.run_capture src in
  String.trim out

let expect name src expected () = checks name expected (run src)

let expect_error name src () =
  checkb name true
    (match Mlua.Driver.run_capture src with
    | exception Mlua.Value.Lua_error _ -> true
    | exception Mlua.Parser.Parse_error _ -> true
    | exception Mlua.Lexer.Lex_error _ -> true
    | _ -> false)

let quick name f = Alcotest.test_case name `Quick f

let lexer_tests =
  let open Mlua.Lexer in
  [
    quick "numbers" (fun () ->
        match tokenize "1 2.5 0x10 3e2 7f 2.f" with
        | [|
         (Tnum (1.0, NInt), _);
         (Tnum (2.5, NFloat), _);
         (Tnum (16.0, NInt), _);
         (Tnum (300.0, NFloat), _);
         (Tnum (7.0, NFloat32), _);
         (Tnum (2.0, NFloat32), _);
         (Teof, _);
        |] ->
            ()
        | _ -> Alcotest.fail "bad number lexing");
    quick "strings and escapes" (fun () ->
        match tokenize {|"a\nb" 'c' [[long
string]]|} with
        | [| (Tstr "a\nb", _); (Tstr "c", _); (Tstr "long\nstring", _); _ |] ->
            ()
        | _ -> Alcotest.fail "bad string lexing");
    quick "comments skipped" (fun () ->
        match tokenize "1 --x\n2 --[[ block\ncomment]] 3" with
        | [| (Tnum (1.0, _), _); (Tnum (2.0, _), _); (Tnum (3.0, _), _); _ |] ->
            ()
        | _ -> Alcotest.fail "comments not skipped");
    quick "line numbers" (fun () ->
        match tokenize "a\nb\n\nc" with
        | [| (_, 1); (_, 2); (_, 4); _ |] -> ()
        | _ -> Alcotest.fail "bad line tracking");
    quick "multi-char symbols" (fun () ->
        match tokenize "== ~= <= .. -> ::" with
        | [|
         (Tsym "==", _); (Tsym "~=", _); (Tsym "<=", _); (Tsym "..", _);
         (Tsym "->", _); (Tsym "::", _); _;
        |] ->
            ()
        | _ -> Alcotest.fail "bad symbols");
    quick "keywords vs names" (fun () ->
        match tokenize "while whilex terra" with
        | [| (Tkw "while", _); (Tname "whilex", _); (Tkw "terra", _); _ |] -> ()
        | _ -> Alcotest.fail "bad keywords");
    quick "concat after number" (fun () ->
        match tokenize "1 ..2" with
        | [| (Tnum (1.0, _), _); (Tsym "..", _); (Tnum (2.0, _), _); _ |] -> ()
        | _ -> Alcotest.fail "dots misparsed");
  ]

let eval_tests =
  [
    quick "arith precedence" (expect "p" "print(1 + 2 * 3 ^ 2)" "19");
    quick "unary minus vs pow" (expect "p" "print(-2 ^ 2)" "-4");
    quick "right-assoc concat" (expect "p" {|print("a" .. "b" .. 1)|} "ab1");
    quick "comparison chain" (expect "p" "print(1 < 2, 2 <= 2, 3 > 4)"
        "true\ttrue\tfalse");
    quick "and-or shortcut" (expect "p"
        "local t = nil; print(t and t.x, nil or 5, false or nil)"
        "nil\t5\tnil");
    quick "truthiness" (expect "p" "if 0 then print('zero is true') end"
        "zero is true");
    quick "while loop" (expect "p"
        "local s = 0 local i = 1 while i <= 4 do s = s + i i = i + 1 end print(s)"
        "10");
    quick "repeat until" (expect "p"
        "local i = 0 repeat i = i + 1 until i >= 3 print(i)" "3");
    quick "numeric for with step" (expect "p"
        "local s = 0 for i = 10, 1, -3 do s = s + i end print(s)" "22");
    quick "for scope per iteration" (expect "p"
        {|local fs = {}
          for i = 1, 3 do fs[i] = function() return i end end
          print(fs[1]() + fs[2]() + fs[3]())|}
        "6");
    quick "break" (expect "p"
        "for i = 1, 100 do if i == 5 then break end end print('done')" "done");
    quick "closures capture by reference" (expect "p"
        {|local function counter()
            local n = 0
            return function() n = n + 1 return n end
          end
          local c = counter()
          c() c()
          print(c())|}
        "3");
    quick "recursion via local function" (expect "p"
        {|local function fib(n) if n < 2 then return n end
          return fib(n-1) + fib(n-2) end
          print(fib(15))|}
        "610");
    quick "multiple assignment" (expect "p"
        "local a, b = 1, 2 a, b = b, a print(a, b)" "2\t1");
    quick "multiple returns" (expect "p"
        {|local function two() return 1, 2 end
          local a, b = two()
          print(a + b)|}
        "3");
    quick "string literal call sugar" (expect "p" {|print"literal sugar"|}
        "literal sugar");
    quick "method definition and call" (expect "p"
        {|local obj = { n = 40 }
          function obj:bump(k) self.n = self.n + k return self.n end
          print(obj:bump(2))|}
        "42");
    quick "nested tables" (expect "p"
        "local t = { a = { b = { c = 7 } } } print(t.a.b.c)" "7");
    quick "table constructor mixed" (expect "p"
        "local t = { 10, x = 5, 20, [100] = 1 } print(t[1], t[2], t.x, t[100])"
        "10\t20\t5\t1");
    quick "length operator" (expect "p" "print(#'hello', #({1,2,3}))" "5\t3");
    quick "global vs local" (expect "p"
        {|g = 1
          local function f() g = g + 1 end
          f()
          print(g)|}
        "2");
    quick "shadowing" (expect "p"
        "local x = 1 do local x = 2 print(x) end print(x)" "2\n1");
    quick "globals table _G" (expect "p" "zz = 3 print(_G.zz)" "3");
  ]

let meta_tests =
  [
    quick "__index function" (expect "m"
        {|local t = setmetatable({}, { __index = function(_, k) return k .. "!" end })
          print(t.foo)|}
        "foo!");
    quick "__index chain" (expect "m"
        {|local base = { x = 9 }
          local t = setmetatable({}, { __index = base })
          print(t.x)|}
        "9");
    quick "__newindex" (expect "m"
        {|local log = {}
          local t = setmetatable({}, { __newindex = function(_, k, v) log[#log+1] = k .. "=" .. v end })
          t.a = 1
          print(log[1])|}
        "a=1");
    quick "arith metamethods" (expect "m"
        {|local mt = {}
          mt.__add = function(a, b) return setmetatable({v = a.v + b.v}, mt) end
          mt.__mul = function(a, b) return setmetatable({v = a.v * b.v}, mt) end
          local a = setmetatable({v = 3}, mt)
          local b = setmetatable({v = 4}, mt)
          print((a + b).v, (a * b).v)|}
        "7\t12");
    quick "__eq" (expect "m"
        {|local mt = { __eq = function(a, b) return a.v == b.v end }
          local a = setmetatable({v = 1}, mt)
          local b = setmetatable({v = 1}, mt)
          print(a == b, a ~= b)|}
        "true\tfalse");
    quick "__call" (expect "m"
        {|local t = setmetatable({}, { __call = function(self, x) return x * 2 end })
          print(t(21))|}
        "42");
    quick "__tostring" (expect "m"
        {|local t = setmetatable({}, { __tostring = function() return "custom" end })
          print(tostring(t))|}
        "custom");
    quick "__unm and __len" (expect "m"
        {|local mt = { __unm = function(a) return -a.v end, __len = function() return 99 end }
          local a = setmetatable({v = 5}, mt)
          print(-a, #a)|}
        "-5\t99");
    quick "__concat" (expect "m"
        {|local mt = { __concat = function(a, b) return "cat" end }
          local a = setmetatable({}, mt)
          print(a .. "x", "x" .. a)|}
        "cat\tcat");
    quick "rawget bypasses __index" (expect "m"
        {|local t = setmetatable({}, { __index = function() return 1 end })
          print(t.missing, rawget(t, "missing"))|}
        "1\tnil");
  ]

let stdlib_tests =
  [
    quick "type" (expect "s"
        "print(type(nil), type(1), type('s'), type({}), type(print))"
        "nil\tnumber\tstring\ttable\tfunction");
    quick "tostring/tonumber" (expect "s"
        "print(tostring(12), tonumber('3.5'), tonumber('nope'))"
        "12\t3.5\tnil");
    quick "pairs covers all keys" (expect "s"
        {|local t = { a = 1, b = 2, c = 3 }
          local n = 0
          for k, v in pairs(t) do n = n + v end
          print(n)|}
        "6");
    quick "ipairs stops at nil" (expect "s"
        {|local t = {10, 20, nil, 40}
          local n = 0
          for _, v in ipairs(t) do n = n + v end
          print(n)|}
        "30");
    quick "string.format" (expect "s"
        {|print(string.format("%d|%5.2f|%s|%x|%%", 42, 3.14159, "hi", 255))|}
        "42| 3.14|hi|ff|%");
    quick "string.sub/rep/upper" (expect "s"
        {|print(string.sub("hello", 2, 4), string.rep("ab", 3), string.upper("x"))|}
        "ell\tababab\tX");
    quick "string method syntax" (expect "s" {|print(("abc"):upper())|} "ABC");
    quick "negative sub indices" (expect "s" {|print(string.sub("hello", -3))|}
        "llo");
    quick "table.insert/remove" (expect "s"
        {|local t = {1, 2, 3}
          table.insert(t, 4)
          table.insert(t, 1, 0)
          print(t[1], t[5], #t)
          local r = table.remove(t, 1)
          print(r, t[1], #t)|}
        "0\t4\t5\n0\t1\t4");
    quick "table.concat" (expect "s"
        {|print(table.concat({"a", "b", "c"}, "-"))|} "a-b-c");
    quick "table.sort with comparator" (expect "s"
        {|local t = {3, 1, 2}
          table.sort(t, function(a, b) return a > b end)
          print(table.concat(t, ","))|}
        "3,2,1");
    quick "math functions" (expect "s"
        "print(math.floor(3.7), math.max(2, 9, 4), math.min(2, 9, 4), math.sqrt(16))"
        "3\t9\t2\t4");
    quick "pcall catches error" (expect "s"
        {|local ok, e = pcall(function() error("boom") end)
          print(ok, e)|}
        "false\tboom");
    quick "pcall success passes results" (expect "s"
        {|print(pcall(function() return 1, 2 end))|} "true\t1\t2");
    quick "assert" (expect_error "assert false" "assert(false, 'nope')");
    quick "unpack" (expect "s" "print(unpack({7, 8, 9}))" "7\t8\t9");
    quick "select" (expect "s"
        "print(select('#', 'a', 'b'), select(2, 'a', 'b'))" "2\tb");
  ]

let error_tests =
  [
    quick "unbound call" (expect_error "e" "nosuchfunction()");
    quick "index nil" (expect_error "e" "local t = nil print(t.x)");
    quick "call a number" (expect_error "e" "local x = 4 x()");
    quick "arith on table" (expect_error "e" "print({} + 1)");
    quick "syntax: missing end" (expect_error "e" "if true then print(1)");
    quick "syntax: bad expression" (expect_error "e" "print(1 + )");
    quick "syntax: assignment to call" (expect_error "e" "f() = 3");
    quick "error values propagate" (fun () ->
        checkb "raises with value" true
          (match Mlua.Driver.run_capture "error({ code = 42 })" with
          | exception Mlua.Value.Lua_error (Mlua.Value.Table _) -> true
          | _ -> false));
  ]

(* qcheck: the interpreter's arithmetic agrees with OCaml floats *)
let prop_arith =
  QCheck.Test.make ~count:100 ~name:"lua arithmetic = ocaml float arithmetic"
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let src = Printf.sprintf "print((%d) + (%d), (%d) * (%d))" a b a b in
      let expected =
        Printf.sprintf "%s\t%s"
          (Mlua.Value.num_to_string (float_of_int a +. float_of_int b))
          (Mlua.Value.num_to_string (float_of_int a *. float_of_int b))
      in
      run src = expected)

let prop_string_roundtrip =
  QCheck.Test.make ~count:100 ~name:"string literals echo back"
    QCheck.(string_gen_of_size (Gen.int_range 0 20) Gen.printable)
    (fun s ->
      QCheck.assume
        (String.for_all
           (fun c -> c <> '"' && c <> '\\' && c <> '\n' && c <> '\r')
           s);
      run (Printf.sprintf "print(\"%s\")" s) = String.trim s)

(* ------------------------------------------------------------------ *)
(* Golden token streams *)

(* One lexer result as text: every token with its line, or the
   [Lex_error] and its line.  Floats print in hex so every bit counts. *)
let render_tokens src =
  let open Mlua.Lexer in
  match tokenize src with
  | toks ->
      let b = Buffer.create 1024 in
      Array.iter
        (fun (t, line) ->
          (match t with
          | Tname n -> Printf.bprintf b "N%S" n
          | Tnum (v, k) ->
              Printf.bprintf b "F%h%s" v
                (match k with NInt -> "i" | NFloat -> "d" | NFloat32 -> "f")
          | Tstr s -> Printf.bprintf b "S%S" s
          | Tkw k -> Printf.bprintf b "K%s" k
          | Tsym s -> Printf.bprintf b "Y%s" s
          | Teof -> Buffer.add_string b "$");
          Printf.bprintf b "@%d " line)
        toks;
      (Array.length toks, Buffer.contents b)
  | exception Lex_error (msg, line) -> (-1, Printf.sprintf "E%S@%d" msg line)

let token_digest src =
  let n, text = render_tokens src in
  let d = String.sub (Digest.to_hex (Digest.string text)) 0 16 in
  if n < 0 then Printf.sprintf "error %s %s" d text else Printf.sprintf "%d %s" n d

(* Random strings over a lexically dense alphabet: comment and
   long-bracket openers and closers, dots, number prefixes and suffixes,
   quotes, escapes and newlines.  One fragment in sixteen is a hazard
   (a stray byte, a lone quote or [~], a cut-off exponent or hex
   prefix), so about half the strings lex and half raise [Lex_error]. *)
let lex_fragments =
  [|
    "--[["; "]]"; "--"; "[["; "["; "]"; "."; ".."; "..."; "0x1f"; "0XaB";
    "1e-3"; "2E+1"; "e"; "f"; "F"; "x"; "ab"; "_z"; "0"; "7"; "9"; "1.5";
    ".5"; "3."; "'q\\n'"; "\"s\\\"t\""; "\"\\\\\""; "\n"; "\n"; " "; " ";
    "\t"; "\r"; "="; "=="; "~="; "<"; "<="; ">"; ">="; "-"; "->"; ":"; "::";
    "+"; "*"; "/"; "%"; "^"; "#"; "("; ")"; "{"; "}"; ";"; ","; "&"; "@";
    "`"; "end"; "terra"; "local"; "quote"; "escape"; "nil";
  |]

let lex_hazards =
  [| "\""; "'"; "\\"; "~"; "0x"; "1e-"; "2e"; "$"; "!"; "?"; "\xff"; "\x80"; "\000" |]

let random_lex_source i =
  let st = Random.State.make [| i; 0x1e |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  String.concat ""
    (List.init
       (1 + Random.State.int st 24)
       (fun _ ->
         if Random.State.int st 16 = 0 then pick lex_hazards
         else pick lex_fragments))

let lex_sources () =
  let dir d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".t")
    |> List.sort compare
    |> List.map (Filename.concat d)
  in
  dir "../examples/programs" @ dir "programs"

let golden_tests =
  [
    quick "token streams of the .t programs" (fun () ->
        Harness.check_golden "lexer_programs.golden"
          (List.map
             (fun path ->
               Printf.sprintf "%s %s" path (token_digest (Harness.read_file path)))
             (lex_sources ())));
    quick "token streams of 2,400 random strings" (fun () ->
        Harness.check_golden "lexer_random.golden"
          (List.init 2400 (fun i ->
               Printf.sprintf "%d %s" i (token_digest (random_lex_source i)))));
  ]

let () =
  Alcotest.run "mlua"
    [
      ("lexer", lexer_tests);
      ("lex-golden", golden_tests);
      ("eval", eval_tests);
      ("metatables", meta_tests);
      ("stdlib", stdlib_tests);
      ("errors", error_tests);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_arith;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
        ] );
    ]
