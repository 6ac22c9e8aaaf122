#!/bin/sh
# Short terra_serve soak for CI: 200 mixed requests (a well-behaved
# tenant interleaved with a hostile one) through a single daemon with a
# small recycle limit, then a graceful drain.  Asserts the well-behaved
# tenant is byte-stable and untouched, every hostile failure rolls back
# verified, the hostile tenant's breaker opens, and the pool drains
# clean (the daemon exits 0 only on a leak-free drain).
set -eu

cd "$(dirname "$0")/.."

dune build bin/terra_serve.exe

soak_in=$(mktemp) soak_out=$(mktemp)
trap 'rm -f "$soak_in" "$soak_out"' EXIT

python3 - "$soak_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
leak = ("local std = terralib.includec(\"stdlib.h\") "
        "terra l() var p = [&int32](std.malloc(64)) p[0] = 1 return p[0] end "
        "print(l())")
with open(sys.argv[1], "w") as f:
    for i in range(200):
        if i % 5 == 4:
            f.write(json.dumps({"src": div, "retries": 0,
                                "tenant": "mallory"}) + "\n")
        elif i % 31 == 17:
            f.write(json.dumps({"src": leak, "tenant": "frank"}) + "\n")
        else:
            f.write(json.dumps({"src": good, "tenant": "alice"}) + "\n")
    f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY

timeout 300 dune exec bin/terra_serve.exe -- --quiet --recycle-after 32 \
  < "$soak_in" > "$soak_out"

python3 - "$soak_out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
runs = [l for l in lines if l.get("schema") == "terra-batch-2"]
assert len(runs) == 200, len(runs)
good = [r for r in runs if r["tenant"] == "alice"]
assert good and all(r["status"] == "ok" and r["output"] == "42\n"
                    and r["exit"] == 0 and r["leaked_bytes"] == 0
                    for r in good), "alice must be untouched by her neighbors"
bad = [r for r in runs if r["tenant"] == "mallory"]
assert bad and all(r["status"] == "error" and r["exit"] == 2
                   and r["rollback"] == "verified" for r in bad), \
    "mallory must fail contained and rolled back"
assert any(r["code"] == "cb.open" for r in bad), "breaker never opened"
assert any(r["code"] == "trap.divzero" for r in bad), "no real fault ran"
leaky = [r for r in runs if r["tenant"] == "frank"]
assert leaky and all(r["leaked_bytes"] > 0 and r["recycled"]
                     for r in leaky), "leaks must be reported and contained"
status = [l for l in lines if l.get("op") == "status"][-1]
assert status["live_bytes"] == 0, status
drain = lines[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("serve soak: %d requests (%d hostile, %d leaky), zero leak growth, "
      "drain clean" % (len(runs), len(bad), len(leaky)))
PY

# ------------------------------------------------------------------
# Parallel workers phase: the same 200-request mix through a daemon
# running 4 worker domains over a 4-engine pool.  Responses keep
# request order (a reorder buffer flushes by sequence number), so the
# same per-tenant assertions hold; --tenant-inflight is raised so that a
# tenant's back-to-back requests run concurrently instead of waiting
# for each other under the default in-flight budget of 1.

par_out=$(mktemp) cache_root=$(mktemp -d)
trap 'rm -f "$soak_in" "$soak_out" "$par_out"; rm -rf "$cache_root"' EXIT

echo "-- parallel soak (--workers 4, shared compilation cache)"
# The 4 worker domains race lookups, stores, and hits on one cache dir;
# the per-tenant assertions below are unchanged — the cache must be
# behavior-invisible — and the final status must show a hot, clean cache.
timeout 300 dune exec bin/terra_serve.exe -- --quiet --recycle-after 32 \
  --pool 4 --workers 4 --tenant-inflight 8 --cache "$cache_root" \
  < "$soak_in" > "$par_out"

python3 - "$par_out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
runs = [l for l in lines if l.get("schema") == "terra-batch-2"]
assert len(runs) == 200, len(runs)
good = [r for r in runs if r["tenant"] == "alice"]
assert good and all(r["status"] == "ok" and r["output"] == "42\n"
                    and r["exit"] == 0 and r["leaked_bytes"] == 0
                    for r in good), "alice must be untouched by her neighbors"
bad = [r for r in runs if r["tenant"] == "mallory"]
assert bad and all(r["status"] == "error" and r["exit"] == 2
                   and r["rollback"] == "verified" for r in bad), \
    "mallory must fail contained and rolled back"
assert any(r["code"] == "trap.divzero" for r in bad), "no real fault ran"
leaky = [r for r in runs if r["tenant"] == "frank"]
assert leaky and all(r["leaked_bytes"] > 0 and r["recycled"]
                     for r in leaky), "leaks must be reported and contained"
status = [l for l in lines if l.get("op") == "status"][-1]
assert status["served"] == 200, status
assert status["live_bytes"] == 0, status
cc = status["ccache"]
assert cc is not None, "status is missing the ccache block"
assert cc["bad_entries"] == 0, cc
assert cc["stores"] == cc["misses"], cc
assert cc["misses"] >= 3, cc
assert cc["hits"] > cc["misses"], cc
drain = lines[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("parallel soak: %d requests across 4 worker domains (%d hostile, "
      "%d leaky), shared cache %d hits / %d misses / 0 bad, zero leak "
      "growth, drain clean" % (len(runs), len(bad), len(leaky),
                               cc["hits"], cc["misses"]))
PY

# ------------------------------------------------------------------
# Kill/recover/zero-loss phase: the same 200-request mix through a
# durable session, uninterrupted, as the reference; then killed at a
# mid-soak durability event, recovered (twice — the second recovery
# also proves recover-after-recover), and driven through the remaining
# workload.  The resumed session's final status must be byte-identical
# to the uninterrupted one (modulo the "durable" block): no committed
# request lost, no uncommitted request replayed.

dur_flags="--quiet --recycle-after 32 --mem 16000000 --ckpt-interval 16"
dur_root=$(mktemp -d)
dur_ref=$(mktemp) dur_probe=$(mktemp) dur_rest=$(mktemp) dur_out=$(mktemp)
trap 'rm -f "$soak_in" "$soak_out" "$par_out" "$dur_ref" "$dur_probe" \
  "$dur_rest" "$dur_out"; rm -rf "$dur_root"' EXIT

echo "-- durable reference run"
timeout 300 dune exec bin/terra_serve.exe -- $dur_flags \
  --durable "$dur_root/ref" < "$soak_in" > "$dur_ref"

echo "-- kill at durability event 217"
rc=0
timeout 300 dune exec bin/terra_serve.exe -- $dur_flags \
  --durable "$dur_root/crash" --crash-at 217 < "$soak_in" \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "durable soak: crash run exited $rc, expected 137" >&2
  exit 1
fi

echo "-- first recovery (probe for the committed seq)"
printf '{"op":"shutdown"}\n' | timeout 300 dune exec bin/terra_serve.exe -- \
  $dur_flags --recover "$dur_root/crash" > "$dur_probe"

# the remaining workload: every line after the last committed request
python3 - "$dur_probe" "$soak_in" "$dur_rest" <<'PY'
import json, sys
report = json.loads(open(sys.argv[1]).readline())
assert report["op"] == "recover", report
assert report["discarded"] in (0, 1), report
k = report["seq"]
lines = open(sys.argv[2]).read().splitlines()
requests = [l for l in lines if l.strip() and "\"op\"" not in l]
assert 0 < k < len(requests), (k, len(requests))
with open(sys.argv[3], "w") as f:
    for l in requests[k:]:
        f.write(l + "\n")
    f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
print("recovered to committed seq %d; %d requests remain"
      % (k, len(requests) - k))
PY

echo "-- second recovery, resuming the remaining workload"
timeout 300 dune exec bin/terra_serve.exe -- $dur_flags \
  --recover "$dur_root/crash" < "$dur_rest" > "$dur_out"

python3 - "$dur_ref" "$dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
ref_status = [l for l in ref if l.get("op") == "status"][-1]
out_status = [l for l in out if l.get("op") == "status"][-1]
for s in (ref_status, out_status):
    s.pop("durable")
assert out_status == ref_status, (out_status, ref_status)
report = out[0]
assert report["op"] == "recover" and report["torn"] is None, report
drain = out[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
runs = [l for l in out if l.get("schema") == "terra-batch-2"]
assert ref_status["served"] == 200, ref_status
print("kill/recover soak: resumed %d requests, final status byte-identical "
      "to the uninterrupted run (served=%d), zero committed requests lost"
      % (len(runs), out_status["served"]))
PY
# ------------------------------------------------------------------
# Durable parallel kill/recover phase: a fresh 200-request workload
# through --workers 4 --durable, killed mid-soak, recovered at
# --workers 4, and driven through the remainder.  One tenant per
# request keeps admission scheduling-independent, so the resumed
# session's final served count and tenant table must equal the
# uninterrupted parallel reference exactly; engine slot placement is
# the scheduler's choice, so the pool block is excluded.

par_dur_in=$(mktemp) par_dur_ref=$(mktemp) par_dur_probe=$(mktemp)
par_dur_rest=$(mktemp) par_dur_out=$(mktemp)
trap 'rm -f "$soak_in" "$soak_out" "$par_out" "$dur_ref" "$dur_probe" \
  "$dur_rest" "$dur_out" "$par_dur_in" "$par_dur_ref" "$par_dur_probe" \
  "$par_dur_rest" "$par_dur_out"; rm -rf "$dur_root"' EXIT

python3 - "$par_dur_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
with open(sys.argv[1], "w") as f:
    for i in range(4):
        f.write(json.dumps({"src": good, "tenant": "warm%d" % i}) + "\n")
    for i in range(200):
        src = div if i % 4 == 3 else good
        f.write(json.dumps({"src": src, "retries": 0,
                            "tenant": "u%03d" % i}) + "\n")
    f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY

par_dur_flags="--quiet --pool 4 --workers 4 --mem 16000000 \
  --ckpt-interval 16"

echo "-- durable parallel reference run (--workers 4)"
timeout 300 dune exec bin/terra_serve.exe -- $par_dur_flags \
  --durable "$dur_root/par-ref" < "$par_dur_in" > "$par_dur_ref"

echo "-- kill at durability event 250 (--workers 4)"
rc=0
timeout 300 dune exec bin/terra_serve.exe -- $par_dur_flags \
  --durable "$dur_root/par-crash" --crash-at 250 < "$par_dur_in" \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
  echo "durable parallel soak: crash run exited $rc, expected 137" >&2
  exit 1
fi

echo "-- parallel recovery (probe for the committed seq)"
printf '{"op":"shutdown"}\n' | timeout 300 dune exec bin/terra_serve.exe -- \
  $par_dur_flags --recover "$dur_root/par-crash" > "$par_dur_probe"

python3 - "$par_dur_probe" "$par_dur_in" "$par_dur_rest" <<'PY'
import json, sys
report = json.loads(open(sys.argv[1]).readline())
assert report["op"] == "recover", report
assert report["torn"] is None, report
# commits land in response order: open begins are bounded by the
# checkpoint interval, not the pool size
assert 0 <= report["discarded"] <= 16, report
k = report["seq"]
lines = open(sys.argv[2]).read().splitlines()
requests = [l for l in lines if l.strip() and "\"op\"" not in l]
assert 0 < k < len(requests), (k, len(requests))
with open(sys.argv[3], "w") as f:
    for l in requests[k:]:
        f.write(l + "\n")
    f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
print("parallel recovery landed on committed seq %d; %d requests remain"
      % (k, len(requests) - k))
PY

echo "-- resumed parallel run over the remainder (--workers 4)"
timeout 300 dune exec bin/terra_serve.exe -- $par_dur_flags \
  --recover "$dur_root/par-crash" < "$par_dur_rest" > "$par_dur_out"

python3 - "$par_dur_ref" "$par_dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
ref_status = [l for l in ref if l.get("op") == "status"][-1]
out_status = [l for l in out if l.get("op") == "status"][-1]
for s in (ref_status, out_status):
    for key in ("durable", "pool", "live_bytes"):
        s.pop(key)
assert out_status == ref_status, (out_status, ref_status)
assert out_status["served"] == 204, out_status
drain = out[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("parallel kill/recover soak: zero committed requests lost, zero "
      "uncommitted replayed (served=%d, %d tenants)"
      % (out_status["served"], len(out_status["tenants"])))
PY

echo "SOAK OK"
