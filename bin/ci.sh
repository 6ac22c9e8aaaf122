#!/bin/sh
# CI entry point: build, the full test suite, the checks that need a
# real process (exit codes, signals, a killed daemon, stdout/stderr
# plumbing, peak RSS), and the modeled-output gate.  What the test suite
# asserts in-process is checked there and only there.
set -eu

cd "$(dirname "$0")/.."

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

terra_run=_build/default/bin/terra_run.exe
terra_serve=_build/default/bin/terra_serve.exe
tobj_run=_build/default/bin/tobj_run.exe

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

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
  timeout 120 $terra_run --checked --fuel 2000000000 "$prog" \
    > /dev/null 2>&1 || rc_plain=$?
  rc_txn=0
  timeout 120 $terra_run --checked --transact --verify-rollback \
    --fuel 2000000000 "$prog" > /dev/null 2>&1 || rc_txn=$?
  if [ "$rc_plain" -ne "$rc_txn" ]; then
    echo "exit-code divergence for $prog: plain=$rc_plain transact=$rc_txn" >&2
    exit 1
  fi
done

echo "== parallel batch gate (--jobs byte-identity) =="
# Every request runs isolated from its worker engine's factory baseline,
# so the report must be byte-identical with no --jobs and at every
# worker count, including the mixed good/san-trap/leak corpus whose
# diagnostics embed heap addresses, and four rand() rows (the modeled C
# PRNG restarts for every request).  --profile json must not touch the
# report: the merged profile goes to stderr, and its counts (every field
# but the host-time "ms") must not depend on the worker count either.
root=$(pwd)
cat > "$scratch/rand.t" <<'TERRA'
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
  for _ in 1 2 3 4; do echo "$scratch/rand.t tenant=dice"; done
} > "$scratch/par.manifest"
# the buggy rows make the batch exit nonzero by design; the gate is
# that every run agrees on the exit code and the report bytes
rc_0=0 rc_a=0 rc_b=0
timeout 240 $terra_run --checked --batch "$scratch/par.manifest" \
  > "$scratch/jobs0" || rc_0=$?
t0=$(date +%s%N)
timeout 240 $terra_run --checked --batch "$scratch/par.manifest" --jobs 1 \
  --profile json > "$scratch/jobs1" 2> "$scratch/prof1" || rc_a=$?
t1=$(date +%s%N)
timeout 240 $terra_run --checked --batch "$scratch/par.manifest" --jobs 4 \
  --profile json > "$scratch/jobs4" 2> "$scratch/prof4" || rc_b=$?
t2=$(date +%s%N)
if [ "$rc_0" -ne "$rc_a" ] || [ "$rc_a" -ne "$rc_b" ]; then
  echo "exit-code divergence: no --jobs rc=$rc_0, jobs=1 rc=$rc_a," \
    "jobs=4 rc=$rc_b" >&2
  exit 1
fi
diff "$scratch/jobs0" "$scratch/jobs1"
diff "$scratch/jobs1" "$scratch/jobs4"
python3 - "$scratch" <<'PY'
import json, os, sys
d = sys.argv[1]
report = json.load(open(os.path.join(d, "jobs1")))
assert report["schema"] == "terra-batch-2", report.get("schema")
assert "profile" not in report, "the profile belongs on stderr"
rows = report["requests"]
assert all(r["status"] == "ok" for r in rows
           if r["file"].endswith("/mandelbrot.t")), rows
outs = [r["output"] for r in rows if r["file"].endswith("/rand.t")]
assert len(outs) == 4 and len(set(outs)) == 1, outs
def counts(name):
    text = open(os.path.join(d, name)).read().strip().splitlines()[-1]
    prof = json.loads(text)
    assert prof["schema"] == "terra-prof-1", prof.get("schema")
    assert prof["total_retired"] > 0, prof
    for ph in prof["phases"]:
        del ph["ms"]
    return prof
assert counts("prof1") == counts("prof4"), "jobs 1 and 4 profiles differ"
PY
echo "no --jobs, jobs=1 and jobs=4 batch reports byte-identical (rc=$rc_a)," \
  "profile counts identical on stderr"
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
python3 - "$terra_run" "$scratch/par.manifest" <<'PY'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "--checked", "--batch", sys.argv[2],
                "--jobs", "4"],
               stdout=subprocess.DEVNULL, timeout=240)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("jobs=4 checked batch peak RSS: %.0f MB" % mb)
if mb > 300:
    sys.exit("jobs=4 checked batch peaked at %.0f MB, above 300 MB" % mb)
PY

echo "== serve smoke =="
# The daemon front end: pipe the example session through terra_serve and
# check every response parses, failed requests roll back verified, and
# the drain is clean (the daemon's own exit code is 0 iff the pool held
# no leaked blocks at shutdown — set -eu turns a leak into a CI failure).
timeout 240 $terra_serve --quiet < examples/serve_session.jsonl \
  > "$scratch/serve.out"
python3 - "$scratch/serve.out" <<'PY'
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

echo "== serve signal drain =="
# SIGTERM while a request runs: the daemon answers the in-flight request,
# then drains with reason "signal" and exits 0.  Once with default flags
# and once with --workers 2 --durable, whose journal must then recover
# with the request committed and nothing discarded.  The spin loop runs
# well past the one second before the signal.
spin_req=$(python3 -c 'import json; print(json.dumps({"fuel": 2000000000,
  "src": "terra spin(n : int64) : int64 var s : int64 = 0 "
         "for i = 0, n do s = s + i % 7 end return s end "
         "print(spin(20000000))"}))')
for mode in default durable; do
  echo "-- $mode"
  flags=""
  if [ "$mode" = durable ]; then
    flags="--workers 2 --durable $scratch/sig-dur"
  fi
  mkfifo "$scratch/sig-in"
  timeout 120 $terra_serve --quiet $flags \
    < "$scratch/sig-in" > "$scratch/sig-out" &
  pid=$!
  # hold the input open, so the daemon is still reading when signalled;
  # a status reply first shows that start-up (engines, the initial
  # checkpoint) is over
  exec 3> "$scratch/sig-in"
  echo '{"op":"status"}' >&3
  tries=0
  until [ -s "$scratch/sig-out" ]; do
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
  rm -f "$scratch/sig-in"
  if [ "$rc" -ne 0 ]; then
    echo "signalled terra_serve ($mode) exited $rc, expected 0" >&2
    cat "$scratch/sig-out" >&2
    exit 1
  fi
  python3 - "$scratch/sig-out" <<'PY'
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
  $terra_serve --quiet --workers 2 --recover "$scratch/sig-dur" \
  > "$scratch/sig-out"
python3 - "$scratch/sig-out" <<'PY'
import json, sys
report = json.loads(open(sys.argv[1]).readline())
assert report["op"] == "recover", report
assert (report["seq"], report["discarded"]) == (1, 0), report
print("signal-drained journal recovers at seq 1, nothing discarded")
PY

echo "== durable crash and recover =="
# The process boundary around test_durable's kill-point matrix: a
# recovery with nothing to recover exits 1; --crash-at exits 137 with
# worker domains running; and a new process recovers the journal and
# keeps serving.
good='{"src":"terra f() return 40 + 2 end print(f())"}'
for _ in 1 2 3 4 5 6; do echo "$good"; done > "$scratch/crash.in"
echo '{"op":"shutdown"}' >> "$scratch/crash.in"
serve_durable="$terra_serve --quiet --workers 2 --mem 16000000 \
  --ckpt-interval 4"
rc=0
echo '{"op":"shutdown"}' | timeout 120 $serve_durable \
  --recover "$scratch/nothing" > /dev/null 2> "$scratch/crash.err" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q recover.no-journal "$scratch/crash.err"; then
  echo "recovering nothing: rc=$rc, expected 1 (recover.no-journal)" >&2
  exit 1
fi
rc=0
timeout 120 $serve_durable --durable "$scratch/crash" --crash-at 9 \
  < "$scratch/crash.in" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "crash-at 9 exited $rc, expected 137" >&2
  exit 1
fi
printf '%s\n{"op":"status"}\n{"op":"shutdown"}\n' "$good" | timeout 120 \
  $serve_durable --recover "$scratch/crash" > "$scratch/crash.out"
python3 - "$scratch/crash.out" <<'PY'
import json, sys
report, run, status, drain = [json.loads(l) for l in open(sys.argv[1])]
assert report["op"] == "recover" and report["torn"] is None, report
k = report["seq"]
assert 0 < k < 6, report
assert run["status"] == "ok" and run["output"] == "42\n", run
assert status["served"] == k + 1, (k, status)
assert (drain["op"], drain["status"]) == ("shutdown", "clean"), drain
print("killed at event 9 (exit 137); recovered to seq %d and served on" % k)
PY

echo "== separate evaluation (tobj_run exit codes) =="
# An export saved by terra_run runs under tobj_run with no Lua anywhere;
# a trap is exit 2 with a structured diagnostic.
cat > "$scratch/prog.t" <<EOF
terra divide(a : int, b : int) : int return a / b end
terralib.saveobj("$scratch/prog.tobj", { divide = divide })
EOF
timeout 120 $terra_run "$scratch/prog.t" > /dev/null
got=$(timeout 60 $tobj_run "$scratch/prog.tobj" divide 7 2)
if [ "$got" != 3 ]; then
  echo "tobj_run divide 7 2 printed '$got', expected 3" >&2
  exit 1
fi
rc=0
timeout 60 $tobj_run "$scratch/prog.tobj" divide 7 0 \
  > /dev/null 2> "$scratch/tobj.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "trap.divzero" "$scratch/tobj.err"; then
  echo "trapping export: rc=$rc, expected 2 with trap.divzero" >&2
  cat "$scratch/tobj.err" >&2
  exit 1
fi
echo "tobj_run divide 7 2 = 3; divide 7 0 exits 2 (trap.divzero)"

echo "== modeled-output gate (bench rows and profiles vs BENCH_10.json) =="
# Host-speed work must leave every modeled number bit-identical.  Rerun
# the GEMM figures (all 28 rows: a row's cache statistics depend on the
# rows run before it on the same machine, so only the full sweep
# reproduces them) and four more experiments, and diff their result
# rows and Tprof profiles against the snapshot; only the host-time "ms"
# of each compile phase may differ.
timeout 900 _build/default/bench/main.exe dgemm sgemm kernelsweep classes \
  ablation topt --json "$scratch/bench.json" > /dev/null
python3 - BENCH_10.json "$scratch/bench.json" <<'PY'
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

echo "CI OK"
