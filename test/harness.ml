(* Shared test harness: the "build an engine, run a program, look at
   output/diagnostics" helpers that every engine-level suite needs.
   Dune links non-entry modules in test/ into each test executable, so
   suites just call [Harness.run_ok] etc. *)

open Terra

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* cwd at test time is _build/default/test; (deps ...) in test/dune
   stages sources into the build tree at their original relative paths *)

(** A paper example program under examples/programs/. *)
let example name = Filename.concat "../examples/programs" name

(** A golden buggy program under test/programs/. *)
let golden name = Filename.concat "programs" name

(** A checked-in expected-output file under test/expected/. *)
let expected name = Filename.concat "expected" name

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(** A fully-installed engine (terralib + the DSL layers) sized for
    tests. *)
let engine ?mem_bytes ?(checked = false) ?faults ?opt_level ?fuel ?profile
    ?trace ?ccache () =
  Terrastd.create ?mem_bytes ~checked ?faults ?opt_level ?fuel ?profile
    ?trace ?ccache ()

(** Build an engine, pass it to [f].  Keeps engine knobs out of the test
    body when the test only needs one. *)
let with_engine ?mem_bytes ?checked ?faults ?opt_level ?fuel ?profile ?trace
    ?ccache f =
  f (engine ?mem_bytes ?checked ?faults ?opt_level ?fuel ?profile ?trace
       ?ccache ())

(** Run [src], returning [(output, result)]. *)
let run_capture ?file e src = Engine.run_capture_protected e ?file src

(** Run [src] that must succeed; returns its captured output. *)
let run_ok ?file e src =
  match Engine.run_capture_protected e ?file src with
  | out, Ok _ -> out
  | _, Error d -> Alcotest.failf "setup run failed: %s" (Diag.to_string d)

(** Run [src] that must fail; returns the structured diagnostic. *)
let run_diag ?file e src =
  match Engine.run_capture_protected e ?file src with
  | _, Error d -> d
  | out, Ok _ ->
      Alcotest.failf "expected a diagnostic, got success with output %S" out

(** Run [src] and check its captured output is exactly [expect]. *)
let run_expect ?file ?(name = "output") e src ~expect =
  Alcotest.(check string) name expect (run_ok ?file e src)

(** Run a golden buggy program from test/programs/ through a fresh
    engine; returns the engine (for leak checks) and the result. *)
let run_golden ?faults ?ccache ~checked name =
  let src = read_file (golden name) in
  let e = engine ~checked ?faults ?ccache () in
  let _, r = Engine.run_capture_protected e ~file:name src in
  (e, r)

(** Run a paper example from examples/programs/ and diff its output
    against a checked-in expected file from test/expected/. *)
let run_expect_file src_file expected_file () =
  let src = read_file (example src_file) in
  let e = engine () in
  match Engine.run_capture_protected e ~file:src_file src with
  | out, Ok _ ->
      Alcotest.(check string) src_file (read_file (expected expected_file)) out
  | _, Error d -> Alcotest.failf "%s: %s" src_file (Diag.to_string d)

(** Compare [lines] with the checked-in golden file [test/expected/NAME].
    On a mismatch, or when the file is missing, the actual lines are
    written to [NAME.actual] in the test's build directory
    (_build/default/test) and the test fails naming the first
    differences; copying that file over test/expected/NAME accepts the
    new output. *)
let check_golden name lines =
  let path = expected name in
  let want =
    if Sys.file_exists path then
      String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")
    else []
  in
  if want <> lines then begin
    let actual = name ^ ".actual" in
    Out_channel.with_open_bin actual (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let rec diffs acc n w l =
      if n = 0 then List.rev acc
      else
        match (w, l) with
        | [], [] -> List.rev acc
        | x :: w', y :: l' when x = y -> diffs acc n w' l'
        | x :: w', y :: l' -> diffs (Printf.sprintf "-%s\n+%s" x y :: acc) (n - 1) w' l'
        | x :: w', [] -> diffs (("-" ^ x) :: acc) (n - 1) w' []
        | [], y :: l' -> diffs (("+" ^ y) :: acc) (n - 1) [] l'
    in
    Alcotest.failf "%s: %d golden lines, %d actual; first differences:\n%s\n(actual output in %s)"
      path (List.length want) (List.length lines)
      (String.concat "\n" (diffs [] 5 want lines))
      actual
  end
