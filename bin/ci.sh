#!/bin/sh
# CI entry point: full build, full test suite, and the paper example
# programs as smoke tests (fuel-bounded so a regression cannot hang CI).
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== example program smoke tests =="
for prog in examples/programs/*.t; do
  echo "-- $prog"
  timeout 120 dune exec bin/terra_run.exe -- --fuel 2000000000 "$prog" \
    > /dev/null
done

echo "== example program smoke tests (checked) =="
# Same programs again under TerraSan.  paper_surface.t keeps heap buffers
# (DataTable columns, Orion pipeline images) alive until engine teardown,
# so its leak check is opted out; everything else must be leak-clean too.
for prog in examples/programs/*.t; do
  echo "-- $prog [checked]"
  case "$prog" in
  *paper_surface.t) extra="--no-leak-check" ;;
  *) extra="" ;;
  esac
  timeout 120 dune exec bin/terra_run.exe -- --checked $extra \
    --fuel 2000000000 "$prog" > /dev/null
done

echo "== optimizer differential (programs at --opt=0 vs --opt=1, --opt=2) =="
# Topt must be semantics-preserving: every example program and every
# golden test program has to print byte-identical output and exit with
# the same code with the optimizer off, at level 1 and fully on.
opt0_out=$(mktemp) optn_out=$(mktemp)
trap 'rm -f "$opt0_out" "$optn_out"' EXIT
for prog in examples/programs/*.t test/programs/*.t; do
  echo "-- $prog [opt-diff]"
  rc0=0
  timeout 120 dune exec bin/terra_run.exe -- --opt=0 --fuel 2000000000 \
    "$prog" > "$opt0_out" || rc0=$?
  for level in 1 2; do
    rcn=0
    timeout 120 dune exec bin/terra_run.exe -- --opt=$level \
      --fuel 2000000000 "$prog" > "$optn_out" || rcn=$?
    diff "$opt0_out" "$optn_out"
    if [ "$rc0" -ne "$rcn" ]; then
      echo "exit-code divergence for $prog: opt0=$rc0 opt$level=$rcn" >&2
      exit 1
    fi
  done
done

echo "== optimizer fuel reduction (mandelbrot) =="
f0=$(dune exec bin/terra_run.exe -- --opt=0 --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
f2=$(dune exec bin/terra_run.exe -- --opt=2 --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "mandelbrot fuel: opt0=$f0 opt2=$f2"
if [ "$f2" -ge "$f0" ]; then
  echo "optimizer did not reduce retired instructions" >&2
  exit 1
fi

echo "== checked-mode overhead bound (mandelbrot) =="
# TerraSan must not change the instruction stream: measure baseline fuel,
# then require the checked run to finish within 3x that budget.
base=$(dune exec bin/terra_run.exe -- --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "baseline fuel: $base"
timeout 120 dune exec bin/terra_run.exe -- --checked --fuel $((3 * base)) \
  examples/programs/mandelbrot.t > /dev/null
echo "checked mandelbrot within 3x fuel budget"

echo "== transactional parity (golden buggy programs) =="
# Running a program inside a supervised transaction must not change what
# the program reports: same exit code as the plain checked run.  The
# --verify-rollback flag additionally asserts the session fingerprint
# (heap bytes + allocator + sanitizer shadow state, i.e. including the
# leak ledger) is byte-identical after a rolled-back failure — a
# mismatch exits 3 and breaks parity below.
for prog in test/programs/*.t; do
  echo "-- $prog [transact-parity]"
  rc_plain=0
  timeout 120 dune exec bin/terra_run.exe -- --checked --fuel 2000000000 \
    "$prog" > /dev/null 2>&1 || rc_plain=$?
  rc_txn=0
  timeout 120 dune exec bin/terra_run.exe -- --checked --transact \
    --verify-rollback --fuel 2000000000 "$prog" > /dev/null 2>&1 \
    || rc_txn=$?
  if [ "$rc_plain" -ne "$rc_txn" ]; then
    echo "exit-code divergence for $prog: plain=$rc_plain transact=$rc_txn" >&2
    exit 1
  fi
done

echo "== batch runner smoke =="
# --profile json prints one profile merged from the requests to stderr;
# its counts (every field but the host-time "ms") must not depend on the
# worker count.
batch_out=$(mktemp) batch_prof1=$(mktemp) batch_prof4=$(mktemp)
timeout 240 dune exec bin/terra_run.exe -- --batch examples/batch.manifest \
  --profile json > "$batch_out" 2> "$batch_prof1"
timeout 240 dune exec bin/terra_run.exe -- --batch examples/batch.manifest \
  --profile json --jobs 4 > /dev/null 2> "$batch_prof4"
python3 - "$batch_out" "$batch_prof1" "$batch_prof4" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "terra-batch-2", report.get("schema")
rows = report["requests"]
assert rows, "batch report is empty"
assert all(r["status"] == "ok" for r in rows), rows
assert "profile" not in report, "the profile belongs on stderr"
def profile(path):
    return json.loads(open(path).read().strip().splitlines()[-1])
def counts(p):
    for ph in p["phases"]:
        del ph["ms"]
    return p
prof = profile(sys.argv[2])
assert prof["schema"] == "terra-prof-1", prof.get("schema")
assert prof["total_retired"] > 0, prof
assert counts(prof) == counts(profile(sys.argv[3])), "jobs 1 and 4 profiles differ"
print("batch report: %d requests, all ok (profile: %d instructions, "
      "identical counts at jobs 1 and 4)" % (len(rows), prof["total_retired"]))
PY
rm -f "$batch_out" "$batch_prof1" "$batch_prof4"

echo "== parallel batch gate (--jobs byte-identity) =="
# Every request runs isolated from its worker engine's factory baseline,
# so the report must be byte-identical with no --jobs and at every
# worker count, including the mixed good/san-trap/leak corpus whose
# diagnostics embed heap addresses, and four rand() rows (the modeled C
# PRNG restarts for every request).
par_dir=$(mktemp -d)
par_manifest="$par_dir/m"
root=$(pwd)
cat > "$par_dir/rand.t" <<'TERRA'
local C = terralib.includec("stdlib.h")
terra r() return C.rand() end
print(r())
TERRA
{
  echo "$root/examples/programs/mandelbrot.t fuel=2000000000 tenant=alice"
  echo "$root/test/programs/double_free.t tenant=mallory"
  echo "$root/test/programs/use_after_free.t tenant=mallory"
  echo "$root/test/programs/leak.t tenant=frank"
  echo "$root/test/programs/invalid_free.t tenant=mallory"
  echo "$root/examples/programs/mandelbrot.t fuel=2000000000 tenant=alice"
  for _ in 1 2 3 4; do echo "$par_dir/rand.t tenant=dice"; done
} > "$par_manifest"
# the buggy rows make the batch exit nonzero by design; the gate is
# that every run agrees on the exit code and the report bytes
rc_0=0 rc_a=0 rc_b=0
timeout 240 dune exec bin/terra_run.exe -- --checked \
  --batch "$par_manifest" > "$par_dir/jobs0" || rc_0=$?
t0=$(date +%s%N)
timeout 240 dune exec bin/terra_run.exe -- --checked \
  --batch "$par_manifest" --jobs 1 > "$par_dir/jobs1" || rc_a=$?
t1=$(date +%s%N)
timeout 240 dune exec bin/terra_run.exe -- --checked \
  --batch "$par_manifest" --jobs 4 > "$par_dir/jobs4" || rc_b=$?
t2=$(date +%s%N)
if [ "$rc_0" -ne "$rc_a" ] || [ "$rc_a" -ne "$rc_b" ]; then
  echo "exit-code divergence: no --jobs rc=$rc_0, jobs=1 rc=$rc_a," \
    "jobs=4 rc=$rc_b" >&2
  exit 1
fi
diff "$par_dir/jobs0" "$par_dir/jobs1"
diff "$par_dir/jobs1" "$par_dir/jobs4"
python3 - "$par_dir/jobs1" <<'PY'
import json, sys
outs = [r["output"] for r in json.load(open(sys.argv[1]))["requests"]
        if r["file"].endswith("/rand.t")]
assert len(outs) == 4 and len(set(outs)) == 1, outs
PY
echo "no --jobs, jobs=1 and jobs=4 batch reports byte-identical (rc=$rc_a)"
ms1=$(( (t1 - t0) / 1000000 )) ms4=$(( (t2 - t1) / 1000000 ))
echo "wall: jobs=1 ${ms1}ms, jobs=4 ${ms4}ms"
if [ "$(nproc)" -ge 4 ]; then
  # four workers must buy at least a 1.67x speedup on real silicon; on
  # narrower CI boxes only the identity gate above is meaningful
  if [ $(( ms4 * 10 )) -gt $(( ms1 * 6 )) ]; then
    echo "jobs=4 wall ${ms4}ms exceeds 0.6x of jobs=1 wall ${ms1}ms" >&2
    exit 1
  fi
  echo "jobs=4 within 0.6x of jobs=1 wall clock"
else
  echo "(fewer than 4 cores: speedup gate skipped, identity gate enforced)"
fi
# An engine costs the arena pages it touches, not the arena's size: four
# checked workers (arena plus shadow map each) on this manifest must
# peak under 300 MB resident.  The built binary runs directly, so the
# peak is terra_run's own and not dune's.
python3 - "$par_manifest" <<'PY'
import resource, subprocess, sys
subprocess.run(["_build/default/bin/terra_run.exe", "--checked", "--batch",
                sys.argv[1], "--jobs", "4"],
               stdout=subprocess.DEVNULL, timeout=240)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("jobs=4 checked batch peak RSS: %.0f MB" % mb)
if mb > 300:
    sys.exit("jobs=4 checked batch peaked at %.0f MB, above 300 MB" % mb)
PY
rm -rf "$par_dir"

echo "== serve smoke =="
# The daemon front end: pipe the example session through terra_serve and
# check every response parses, failed requests roll back verified, and
# the drain is clean (the daemon's own exit code is 0 iff the pool held
# no leaked blocks at shutdown — set -eu turns a leak into a CI failure).
serve_out=$(mktemp)
timeout 240 dune exec bin/terra_serve.exe -- --quiet \
  < examples/serve_session.jsonl > "$serve_out"
python3 - "$serve_out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
runs = [l for l in lines if l.get("schema") == "terra-batch-2"]
assert runs, "no run responses"
for r in runs:
    assert r["status"] in ("ok", "error"), r
    if r["status"] == "error":
        assert r["rollback"] == "verified", r
oks = [r for r in runs if r["status"] == "ok"]
assert oks and all(r["exit"] == 0 for r in oks), oks
assert any(r["retries"] > 0 for r in runs), "injected fault was not retried"
drain = lines[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("serve smoke: %d responses (%d runs), drain clean"
      % (len(lines), len(runs)))
PY
rm -f "$serve_out"

echo "== serve signal drain =="
# SIGTERM while a request runs: the daemon answers the in-flight request,
# then drains with reason "signal" and exits 0.  Once with default flags
# and once with --workers 2 --durable, whose journal must then recover
# with the request committed and nothing discarded.  The spin loop runs
# well past the one second before the signal.
sig_root=$(mktemp -d)
spin_req=$(python3 -c 'import json; print(json.dumps({"fuel": 2000000000,
  "src": "terra spin(n : int64) : int64 var s : int64 = 0 "
         "for i = 0, n do s = s + i % 7 end return s end "
         "print(spin(20000000))"}))')
for mode in default durable; do
  echo "-- $mode"
  flags=""
  if [ "$mode" = durable ]; then
    flags="--workers 2 --durable $sig_root/dur"
  fi
  mkfifo "$sig_root/in"
  timeout 120 _build/default/bin/terra_serve.exe --quiet $flags \
    < "$sig_root/in" > "$sig_root/out" &
  pid=$!
  # hold the input open, so the daemon is still reading when signalled;
  # a status reply first shows that start-up (engines, the initial
  # checkpoint) is over
  exec 3> "$sig_root/in"
  echo '{"op":"status"}' >&3
  tries=0
  until [ -s "$sig_root/out" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 600 ]; then
      echo "terra_serve ($mode) never answered status" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "$spin_req" >&3
  sleep 1
  kill -TERM "$pid"  # timeout passes the signal on
  rc=0
  wait "$pid" || rc=$?
  exec 3>&-
  rm -f "$sig_root/in"
  if [ "$rc" -ne 0 ]; then
    echo "signalled terra_serve ($mode) exited $rc, expected 0" >&2
    cat "$sig_root/out" >&2
    exit 1
  fi
  python3 - "$sig_root/out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 3, lines
status, run, drain = lines
assert status["op"] == "status", status
assert run["status"] == "ok" and run["output"] == "59999997\n", run
assert (drain["op"], drain["reason"], drain["status"]) \
    == ("shutdown", "signal", "clean"), drain
print("in-flight request answered, then a clean signal drain")
PY
done
printf '{"op":"shutdown"}\n' | timeout 120 \
  _build/default/bin/terra_serve.exe --quiet --workers 2 \
  --recover "$sig_root/dur" > "$sig_root/out"
python3 - "$sig_root/out" <<'PY'
import json, sys
report = json.loads(open(sys.argv[1]).readline())
assert report["op"] == "recover", report
assert (report["seq"], report["discarded"]) == (1, 0), report
print("signal-drained journal recovers at seq 1, nothing discarded")
PY
rm -rf "$sig_root"

echo "== separate evaluation smoke (saveobj + tobj_run) =="
# A program saves an object file, and its exports then run under
# tobj_run with no Lua anywhere.  usepick reaches helper only through the
# function address pick returns, cmp compares against helper's address,
# and a trapping export must exit 2 with a structured diagnostic.
obj_dir=$(mktemp -d)
cat > "$obj_dir/prog.t" <<EOF
terra helper(x : int) : int return x * 3 end
terra pick() : {int} -> int return helper end
terra usepick(x : int) : int return pick()(x) end
terra same(f : {int} -> int) : int
  if f == helper then return 1 else return 0 end
end
terra cmp() : int return same(helper) end
terra divide(a : int, b : int) : int return a / b end
terralib.saveobj("$obj_dir/prog.tobj",
  { usepick = usepick, cmp = cmp, divide = divide })
EOF
timeout 120 dune exec bin/terra_run.exe -- "$obj_dir/prog.t" > /dev/null
tobj_expect() {
  want=$1
  shift
  got=$(timeout 60 dune exec bin/tobj_run.exe -- "$obj_dir/prog.tobj" "$@")
  if [ "$got" != "$want" ]; then
    echo "tobj_run $*: printed '$got', expected '$want'" >&2
    exit 1
  fi
  echo "tobj_run $* = $got"
}
tobj_expect 15 usepick 5
tobj_expect 1 cmp
tobj_expect 3 divide 7 2
rc=0
timeout 60 dune exec bin/tobj_run.exe -- "$obj_dir/prog.tobj" divide 7 0 \
  > /dev/null 2> "$obj_dir/err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "trap.divzero" "$obj_dir/err"; then
  echo "trapping export: rc=$rc, expected 2 with trap.divzero" >&2
  cat "$obj_dir/err" >&2
  exit 1
fi
echo "tobj_run divide 7 0 exits 2 (trap.divzero)"
rm -rf "$obj_dir"

echo "== profiler gate =="
# Tprof must (a) emit valid terra-prof-1 JSON whose totals tie out,
# (b) cost zero modeled instructions when off, and (c) render
# byte-identical deterministic text profiles across runs.
prof_out=$(mktemp) prof_a=$(mktemp) prof_b=$(mktemp)
for prog in examples/programs/*.t; do
  echo "-- $prog [profile-json]"
  timeout 120 dune exec bin/terra_run.exe -- --profile=json --report-fuel \
    --fuel 2000000000 "$prog" > /dev/null 2> "$prof_out"
  python3 - "$prof_out" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
fuel = next(int(l.split()[1]) for l in lines if l.startswith("fuel:"))
prof = json.loads(next(l for l in lines if l.startswith("{")))
assert prof["schema"] == "terra-prof-1", prof.get("schema")
assert prof["total_retired"] == fuel, (prof["total_retired"], fuel)
assert isinstance(prof["functions"], list) and prof["functions"]
for f in prof["functions"]:
    assert 0 <= f["self"] <= f["total"] <= prof["total_retired"], f
assert sum(f["self"] for f in prof["functions"]) <= prof["total_retired"]
print("profile ok: %d instructions, %d functions"
      % (fuel, len(prof["functions"])))
PY
done
echo "-- zero overhead when off (mandelbrot)"
f_off=$(dune exec bin/terra_run.exe -- --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
f_on=$(dune exec bin/terra_run.exe -- --profile=json --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "fuel off=$f_off on=$f_on"
if [ "$f_off" -ne "$f_on" ]; then
  echo "profiling changed the modeled instruction stream" >&2
  exit 1
fi
echo "-- deterministic text profile (mandelbrot)"
dune exec bin/terra_run.exe -- --profile=text \
  examples/programs/mandelbrot.t 2> "$prof_a" > /dev/null
dune exec bin/terra_run.exe -- --profile=text \
  examples/programs/mandelbrot.t 2> "$prof_b" > /dev/null
diff "$prof_a" "$prof_b"
echo "profiles byte-identical across runs"
rm -f "$prof_out" "$prof_a" "$prof_b"

echo "== compilation cache gate =="
# A cold pass populates the cache; the warm pass over the same programs
# must compile nothing (zero jit.compile visits, so zero compile-phase
# wall-ms) and hit for every function.  Then every entry is corrupted in
# place: the next run must report structured bad entries, produce
# byte-identical output, and self-heal so a final run hits again.
cache_dir=$(mktemp -d) cache_prof=$(mktemp) cache_ref=$(mktemp) \
  cache_got=$(mktemp)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got"' EXIT
for prog in examples/programs/*.t; do
  echo "-- $prog [cache-cold]"
  timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
    --fuel 2000000000 "$prog" > /dev/null
done
for prog in examples/programs/*.t; do
  echo "-- $prog [cache-warm]"
  timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
    --profile=json --fuel 2000000000 "$prog" > /dev/null 2> "$cache_prof"
  python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
hits = phases.get("jit.ccache.hit", {"count": 0})["count"]
misses = phases.get("jit.ccache.miss", {"count": 0})["count"]
compiles = phases.get("jit.compile", {"count": 0})["count"]
ms = (phases.get("jit.compile", {"ms": 0.0})["ms"]
      + phases.get("jit.optimize", {"ms": 0.0})["ms"])
assert hits > 0, "warm run never hit the cache: %s" % sorted(phases)
assert misses == 0, "warm run missed %d times" % misses
assert compiles == 0, "warm run compiled %d functions" % compiles
assert ms == 0.0, "warm run spent %.3f compile-phase ms" % ms
print("warm cache: %d hits, 0 misses, 0.0 compile-phase ms" % hits)
PY
done
echo "-- corrupt-entry self-heal (mandelbrot)"
timeout 120 dune exec bin/terra_run.exe -- --fuel 2000000000 \
  examples/programs/mandelbrot.t > "$cache_ref"
python3 - "$cache_dir" <<'PY'
import os, sys
d = sys.argv[1]
entries = [f for f in os.listdir(d) if f.endswith(".tcc")]
assert entries, "cache dir is empty"
for f in entries:
    p = os.path.join(d, f)
    data = bytearray(open(p, "rb").read())
    data[len(data) // 2] ^= 0x5A
    open(p, "wb").write(bytes(data))
print("corrupted %d cache entries in place" % len(entries))
PY
timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
  --profile=json --fuel 2000000000 examples/programs/mandelbrot.t \
  > "$cache_got" 2> "$cache_prof"
diff "$cache_ref" "$cache_got"
python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
bad = phases.get("jit.ccache.bad-entry", {"count": 0})["count"]
stores = phases.get("jit.ccache.store", {"count": 0})["count"]
assert bad > 0, "corruption went undetected: %s" % sorted(phases)
assert stores >= bad, "bad entries were not re-stored"
print("corrupt entries: %d structured bad-entry recompiles, output "
      "byte-identical" % bad)
PY
timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
  --profile=json --fuel 2000000000 examples/programs/mandelbrot.t \
  > /dev/null 2> "$cache_prof"
python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
assert phases.get("jit.ccache.hit", {"count": 0})["count"] > 0, \
    "healed entry did not hit"
assert phases.get("jit.compile", {"count": 0})["count"] == 0, phases
print("self-heal verified: corrupted entries were overwritten and hit")
PY

echo "== durable recovery gate =="
# Write-ahead journal + checkpoints: a session killed at a durability
# event and recovered must land exactly on the committed prefix.  The
# reference run interleaves a status probe after every request, so the
# reference state at every committed seq K is on record; each crashed
# run uses the identical input, so recovery at K must reproduce the
# K-th reference status byte-for-byte (modulo the "durable" block).
dur_in=$(mktemp) dur_ref=$(mktemp) dur_out=$(mktemp) dur_err=$(mktemp)
dur_root=$(mktemp -d)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got" "$dur_in" "$dur_ref" "$dur_out" \
  "$dur_err" "$dur_root"' EXIT
python3 - "$dur_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
with open(sys.argv[1], "w") as f:
    f.write(json.dumps({"op": "status"}) + "\n")
    for i in range(60):
        if i % 4 == 3:
            f.write(json.dumps({"src": div, "retries": 0,
                                "tenant": "mallory"}) + "\n")
        else:
            f.write(json.dumps({"src": good, "tenant": "alice"}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY
serve_durable="dune exec bin/terra_serve.exe -- --quiet --mem 16000000 \
  --ckpt-interval 8"
timeout 300 $serve_durable --durable "$dur_root/ref" < "$dur_in" > "$dur_ref"
for n in 1 2 3 17 64 99 131; do
  echo "-- crash at durability event $n"
  rc=0
  timeout 300 $serve_durable --durable "$dur_root/c$n" --crash-at "$n" \
    < "$dur_in" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "crash-at $n exited $rc, expected 137" >&2
    exit 1
  fi
  if [ "$n" -le 2 ]; then
    # killed before the first checkpoint's rename completed (event 1 is
    # its temp write, event 2 its rename): recovery must fail with a
    # structured diagnostic, not a crash
    rc=0
    printf '{"op":"shutdown"}\n' | timeout 300 $serve_durable \
      --recover "$dur_root/c$n" > /dev/null 2> "$dur_err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "recover.no-checkpoint" "$dur_err"; then
      echo "pre-checkpoint recovery: rc=$rc" >&2
      cat "$dur_err" >&2
      exit 1
    fi
  else
    printf '{"op":"status"}\n{"op":"shutdown"}\n' | timeout 300 \
      $serve_durable --recover "$dur_root/c$n" > "$dur_out"
    python3 - "$dur_ref" "$dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_served = {s["served"]: s for s in ref if s.get("op") == "status"}
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
report, status, drain = out[0], out[1], out[-1]
assert report["op"] == "recover", report
assert report["discarded"] in (0, 1), report
assert report["torn"] is None, report
k = report["seq"]
want = dict(by_served[k]); want.pop("durable")
got = dict(status); got.pop("durable")
assert got == want, (k, got, want)
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("recovered to seq %d: status byte-identical to the reference" % k)
PY
  fi
done

echo "== durable parallel gate (--workers 4 kill points) =="
# The same WAL/checkpoint/recovery contract under 4 worker domains.  A
# sequential durable reference run (status probe after every request)
# records the state at every committed seq K; a run killed at a
# durability event under --workers 4 must recover to exactly the
# reference state at its committed K.  One tenant per request keeps
# admission scheduling-independent; engine slot placement is the
# scheduler's choice, so the pool block (and the pool-wide live_bytes
# sum) is excluded from the comparison.
par_dur_in=$(mktemp) par_dur_ref=$(mktemp) par_dur_out=$(mktemp)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got" "$dur_in" "$dur_ref" "$dur_out" \
  "$dur_err" "$dur_root" "$par_dur_in" "$par_dur_ref" "$par_dur_out"' EXIT
python3 - "$par_dur_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
with open(sys.argv[1], "w") as f:
    f.write(json.dumps({"op": "status"}) + "\n")
    # warm all four slots first (round-robin checkout), so no later
    # request pays a first-compile that depends on which slot it lands
    for i in range(4):
        f.write(json.dumps({"src": good, "tenant": "warm%d" % i}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    for i in range(48):
        src = div if i % 3 == 2 else good
        f.write(json.dumps({"src": src, "retries": 0,
                            "tenant": "t%02d" % i}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY
serve_par="dune exec bin/terra_serve.exe -- --quiet --pool 4 \
  --mem 16000000 --ckpt-interval 8"
timeout 300 $serve_par --durable "$dur_root/par-ref" < "$par_dur_in" \
  > "$par_dur_ref"
# 52 requests, interval 8: events = 3 (initial ckpt) + 104 (begin/end)
# + 18 (6 checkpoints) = 125
for n in 3 33 90 124; do
  echo "-- crash at durability event $n (--workers 4)"
  rc=0
  timeout 300 $serve_par --workers 4 --durable "$dur_root/par-c$n" \
    --crash-at "$n" < "$par_dur_in" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "parallel crash-at $n exited $rc, expected 137" >&2
    exit 1
  fi
  printf '{"op":"status"}\n{"op":"shutdown"}\n' | timeout 300 \
    $serve_par --workers 4 --recover "$dur_root/par-c$n" > "$par_dur_out"
  python3 - "$par_dur_ref" "$par_dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_served = {s["served"]: s for s in ref if s.get("op") == "status"}
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
report, status, drain = out[0], out[1], out[-1]
assert report["op"] == "recover", report
# commits land in response order, so open begins are bounded by the
# checkpoint interval, not the pool size
assert 0 <= report["discarded"] <= 8, report
assert report["torn"] is None, report
k = report["seq"]
want = dict(by_served[k]); got = dict(status)
for s in (want, got):
    for key in ("durable", "pool", "live_bytes"):
        s.pop(key)
assert got == want, (k, got, want)
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("workers-4 crash recovered to seq %d: served and tenant state "
      "identical to the sequential reference" % k)
PY
done

echo "== durable old-format refusal =="
# Fingerprints are page-digest roots since checkpoint format 2, so a
# format-1 journal's recorded fingerprints cannot tie out.  Recovery
# must refuse it at the checkpoint magic with a structured diagnostic,
# never report it as a fingerprint mismatch.  The magic lies outside
# the Blobio digest, so rewriting it is a plain byte edit.
head -n 19 "$dur_in" > "$dur_root/old.in"
printf '{"op":"shutdown"}\n' >> "$dur_root/old.in"
timeout 300 $serve_durable --durable "$dur_root/old" < "$dur_root/old.in" \
  > /dev/null
python3 - "$dur_root/old" <<'PY'
import os, sys
d = sys.argv[1]
ckpts = [f for f in os.listdir(d) if f.startswith("ckpt-")]
assert ckpts, os.listdir(d)
for f in ckpts:
    p = os.path.join(d, f)
    data = open(p, "rb").read()
    assert data.startswith(b"TERRASRV2\n"), (f, data[:12])
    open(p, "wb").write(b"TERRASRV1\n" + data[len(b"TERRASRV2\n"):])
print("rewrote %d checkpoint(s) to format 1" % len(ckpts))
PY
rc=0
printf '{"op":"shutdown"}\n' | timeout 300 $serve_durable \
  --recover "$dur_root/old" > "$dur_out" 2> "$dur_err" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "recover.no-checkpoint" "$dur_err" \
  || ! grep -q "bad magic" "$dur_err" \
  || grep -q "fingerprint-mismatch" "$dur_out" "$dur_err"; then
  echo "format-1 recovery: rc=$rc" >&2
  cat "$dur_out" "$dur_err" >&2
  exit 1
fi
echo "format-1 journal refused: exit 1, recover.no-checkpoint (bad magic)"

echo "== modeled-output gate (bench rows and profiles vs BENCH_10.json) =="
# Host-speed work must leave every modeled number bit-identical.  Rerun
# the GEMM figures (all 28 rows: a row's cache statistics depend on the
# rows run before it on the same machine, so only the full sweep
# reproduces them) and four more experiments, and diff their result
# rows and Tprof profiles against the snapshot; only the host-time "ms"
# of each compile phase may differ.
bench_out=$(mktemp)
timeout 900 dune exec bench/main.exe -- dgemm sgemm kernelsweep classes \
  ablation topt --json "$bench_out" > /dev/null
python3 - BENCH_10.json "$bench_out" <<'PY'
import json, sys
exps = ["dgemm", "sgemm", "kernelsweep", "classes", "ablation", "topt"]
ref, got = (json.load(open(p)) for p in sys.argv[1:3])
def rows(d):
    return [r for r in d["results"] if r["experiment"] in exps]
def profile(d, e):
    p = dict(d["profiles"][e])
    p["phases"] = [{k: v for k, v in ph.items() if k != "ms"}
                   for ph in p["phases"]]
    return p
assert rows(got) == rows(ref), (rows(got), rows(ref))
for e in exps:
    assert profile(got, e) == profile(ref, e), "profile %s differs" % e
print("modeled output identical to BENCH_10.json: %d rows, %d profiles"
      % (len(rows(ref)), len(exps)))
PY
rm -f "$bench_out"

echo "CI OK"
