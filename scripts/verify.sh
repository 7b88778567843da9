#!/bin/sh
# verify.sh — the repo's full verification gate, a superset of the tier-1
# check in ROADMAP.md. Run from the repository root:
#
#     sh scripts/verify.sh
#
# Steps: build, unit tests, go vet, a gofmt check, a build and vet of the
# separate perfbench module, the simlint determinism/robustness
# pass, a race-detector pass over the short tests, a coverage floor on
# the experiment-harness core packages, the attacks they drive, the
# streaming detector, the simulator's detector adapter, the fleet
# generator, the event clock, System UI, the window manager, the system
# server and the lint pass, a 10 s fuzz of the random source against math/rand, the
# scheduler
# parity diff plus a 200-device fleet-sweep parity smoke, a vetd
# serving smoke (checked vetload replay +
# clean SIGINT shutdown), a distributed ring smoke (3 vetd peers behind
# vetrouter, chaos kill/restart schedule, zero verdict mismatches
# required), a sentryd smoke (a 2000-device labeled fleet replay
# that must detect every planted attacker with zero false positives), a
# routed sentry chaos smoke (3 sentryd peers behind sentryrouter,
# SIGKILL/restart cycles plus a live rule swap, zero detection
# mismatches against a single-node reference required), and a benchmark
# regression gate (every benchmark in the committed BENCH_*.json
# snapshots re-run and required within BENCH_TOL percent of its
# committed ns/op and at or under its committed allocs/op, best of up
# to three passes).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
UNFORMATTED=$(gofmt -l .)
[ -z "$UNFORMATTED" ] || { echo "gofmt: these files need formatting:"; echo "$UNFORMATTED"; exit 1; }

# perfbench is its own module, so the steps above never compile it; build
# and vet it here so an API change that breaks the benchmark fails the
# gate. -o /dev/null: a plain build of its main package would leave a
# binary in the tree.
echo "==> perfbench: go build + go vet"
(cd perfbench && go build -o /dev/null ./... && go vet ./...)

echo "==> simlint internal/"
go run ./cmd/simlint

echo "==> go test -race -short ./..."
go test -race -short ./...

# Coverage floor for the experiment-harness core, the attacks it drives,
# the streaming detector, the simulator's detector adapter, the fleet
# generator and the shared serving core: the journaled runners and the
# sweep-wide invariant aggregation are the crash-safety layer,
# internal/core holds the overlay, toast and password-stealing attacks
# that the experiments' shared attack runner drives, internal/appstore
# holds the §VI-C2 corpus generator and scanners the corpus and
# precision experiments shard into chunk trials, the sentry
# engine/server carry the accounting and shard-invariance contracts,
# internal/sentring carries the routed ingest's batch accounting and
# topology-independent report, internal/defense is the simulator's only
# entry point to the §VII-A rule, the fleet generator carries the
# population-determinism contract, internal/ring carries both routers'
# retry and accounting machinery, internal/applog carries every
# log's crash-safety contract, internal/simrand's generator must draw
# exactly what math/rand draws for every seed, internal/binder
# carries the transaction ordering and fault delivery every trial runs
# on, and internal/sysui and internal/simclock carry what lets a fleet
# verdict run stop at its deciding event: a worst alert outcome that
# never falls, and the event stepping the run stops between;
# internal/wm and internal/sysserver carry the window and toast state
# every trial runs on and report their internal breaches only to the
# invariant monitor, and internal/simlint carries the determinism rules
# and the test-only-export guard, and internal/vetd and internal/vetring
# carry the vetting node's and router's accounting and the service
# halves of the ops surface they hand internal/ring (readiness inputs,
# stats snapshots, metric families), and internal/load carries both load
# tools' 429 retry loop, the fleet replay's per-device order and the ring
# harness's process lifecycle — a drop below the floor means those
# paths lost their tests. All packages currently sit well above it.
COVER_FLOOR=65
COVER_PKGS="./internal/experiment ./internal/core ./internal/appstore ./internal/invariant ./internal/sentry ./internal/sentring ./internal/defense ./internal/fleet ./internal/ring ./internal/applog ./internal/simrand ./internal/binder ./internal/sysui ./internal/simclock ./internal/wm ./internal/sysserver ./internal/simlint ./internal/vetd ./internal/vetring ./internal/load"
echo "==> go test -cover $COVER_PKGS (floor ${COVER_FLOOR}%)"
go test -cover $COVER_PKGS | tee /tmp/verify-cover.$$
awk -v floor="$COVER_FLOOR" '
	/coverage:/ {
		for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i + 1)
		sub(/%$/, "", pct)
		if (pct + 0 < floor) { print "coverage below floor (" floor "%): " $0; bad = 1 }
	}
	END { exit bad }
' /tmp/verify-cover.$$
rm -f /tmp/verify-cover.$$

# internal/simrand's source runs lazily for a stream's first 273 draws and
# on its full state after; fuzz seeds against math/rand so both modes stay
# draw-for-draw equal to rand.NewSource for arbitrary seeds.
echo "==> go test -fuzz FuzzSourceMatchesMathRand (10s)"
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 10s ./internal/simrand

# Parallel-scheduler contract: the full suite must render byte-identically
# at one worker and four. Any diff means a trial still draws from a shared
# RNG stream at run time.
echo "==> animbench -workers 1 vs -workers 4 parity"
ANIMBENCH=/tmp/verify-animbench.$$
go build -o "$ANIMBENCH" ./cmd/animbench
set +e
"$ANIMBENCH" -exp all -seed 42 -trials 1 -corpus 20000 -workers 1 >/tmp/verify-w1.$$ 2>&1
W1=$?
"$ANIMBENCH" -exp all -seed 42 -trials 1 -corpus 20000 -workers 4 >/tmp/verify-w4.$$ 2>&1
W4=$?
set -e
# Exit 3 just flags skipped trials in an -exp all suite; both runs must
# agree on it, and any other nonzero status is a real failure.
[ "$W1" -eq 0 ] || [ "$W1" -eq 3 ] || { echo "workers=1 run failed ($W1)"; exit 1; }
[ "$W4" -eq "$W1" ] || { echo "exit status differs: workers=1 -> $W1, workers=4 -> $W4"; exit 1; }
diff -u /tmp/verify-w1.$$ /tmp/verify-w4.$$ || { echo "workers=4 output differs from workers=1"; exit 1; }

# Fleet sweep smoke: a 200-device generated population through the
# market-weighted sweep, workers 1 vs 4 — generation and measurement must
# both be byte-identical across worker counts.
echo "==> animbench -exp fleet -fleet-size 200 parity"
"$ANIMBENCH" -exp fleet -fleet-size 200 -seed 42 -workers 1 >/tmp/verify-f1.$$ 2>&1 || { echo "fleet workers=1 run failed"; cat /tmp/verify-f1.$$; exit 1; }
"$ANIMBENCH" -exp fleet -fleet-size 200 -seed 42 -workers 4 >/tmp/verify-f4.$$ 2>&1 || { echo "fleet workers=4 run failed"; cat /tmp/verify-f4.$$; exit 1; }
diff -u /tmp/verify-f1.$$ /tmp/verify-f4.$$ || { echo "fleet workers=4 output differs from workers=1"; exit 1; }
rm -f "$ANIMBENCH" /tmp/verify-w1.$$ /tmp/verify-w4.$$ /tmp/verify-f1.$$ /tmp/verify-f4.$$

# Measure the degradation sweep's parallel speedup (ns/op at workers=1 vs
# workers=4). Informational: the ratio depends on the host's core count.
echo "==> go test -bench=Degradation -benchtime=1x"
go test -run '^$' -bench Degradation -benchtime 1x .

# vetd serving smoke: boot the vetting service on an ephemeral port, replay
# a short seeded workload with -check (every served verdict compared
# byte-for-byte against a direct defense.Vet), and require a clean SIGINT
# shutdown. A nonzero vetload exit means a verdict mismatch, a transport
# error, or broken hit/miss/shed accounting.
echo "==> vetd smoke (vetload -duration 2s -check)"
VETD=/tmp/verify-vetd.$$
VETLOAD=/tmp/verify-vetload.$$
VETDLOG=/tmp/verify-vetd-log.$$
go build -o "$VETD" ./cmd/vetd
go build -o "$VETLOAD" ./cmd/vetload
"$VETD" -addr 127.0.0.1:0 >"$VETDLOG" 2>&1 &
VETD_PID=$!
ADDR=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	ADDR=$(sed -n 's/^vetd: listening on //p' "$VETDLOG")
	[ -n "$ADDR" ] && break
	sleep 0.5
done
[ -n "$ADDR" ] || { echo "vetd never reported its listen address"; cat "$VETDLOG"; kill "$VETD_PID" 2>/dev/null; exit 1; }
"$VETLOAD" -addr "http://$ADDR" -duration 2s -check || { echo "vetload -check failed"; kill "$VETD_PID" 2>/dev/null; exit 1; }
kill -INT "$VETD_PID"
wait "$VETD_PID" || { echo "vetd did not shut down cleanly on SIGINT"; cat "$VETDLOG"; exit 1; }
grep -q "shutdown complete" "$VETDLOG" || { echo "vetd missing shutdown line"; cat "$VETDLOG"; exit 1; }
rm -f "$VETDLOG"

# Distributed ring smoke: vetload spawns 3 vetd peers (each with a
# crash-safe store) and a vetrouter, replays a checked workload through
# the router while the chaos schedule SIGKILLs and restarts peers, then
# requires clean SIGINT exits from every process. A nonzero exit means a
# verdict mismatch through a failover/degrade path, a lost request, a
# store that failed to recover, or broken router accounting
# (replicated+degraded+shed+failed != requests).
echo "==> ring smoke (vetload -ring 3 -chaos 600ms -check)"
VETROUTER=/tmp/verify-vetrouter.$$
RINGSTORES=/tmp/verify-ring-stores.$$
go build -o "$VETROUTER" ./cmd/vetrouter
"$VETLOAD" -ring 3 -vetd-bin "$VETD" -router-bin "$VETROUTER" \
	-store-dir "$RINGSTORES" -duration 2s -chaos 600ms -clients 4 -check \
	|| { echo "ring smoke failed"; rm -rf "$RINGSTORES"; exit 1; }
rm -rf "$RINGSTORES"
rm -f "$VETD" "$VETLOAD" "$VETROUTER"

# sentryd smoke: boot the streaming detection service on an ephemeral
# port, replay a seeded 2000-device labeled fleet open-loop, and require
# perfect conformance — every planted attacker detected, zero false
# positives, exact detected+clean+shed == devices_reported accounting —
# plus a clean SIGINT shutdown printing the final accounting.
echo "==> sentryd smoke (fleetload -devices 2000 -require-perfect)"
SENTRYD=/tmp/verify-sentryd.$$
FLEETLOAD=/tmp/verify-fleetload.$$
SENTRYDLOG=/tmp/verify-sentryd-log.$$
go build -o "$SENTRYD" ./cmd/sentryd
go build -o "$FLEETLOAD" ./cmd/fleetload
"$SENTRYD" -addr 127.0.0.1:0 >"$SENTRYDLOG" 2>&1 &
SENTRYD_PID=$!
ADDR=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	ADDR=$(sed -n 's/^sentryd: listening on //p' "$SENTRYDLOG")
	[ -n "$ADDR" ] && break
	sleep 0.5
done
[ -n "$ADDR" ] || { echo "sentryd never reported its listen address"; cat "$SENTRYDLOG"; kill "$SENTRYD_PID" 2>/dev/null; exit 1; }
"$FLEETLOAD" -addr "$ADDR" -devices 2000 -attackers 40 -notif-abusers 20 -seed 42 -require-perfect \
	|| { echo "fleetload conformance failed"; kill "$SENTRYD_PID" 2>/dev/null; exit 1; }
kill -INT "$SENTRYD_PID"
wait "$SENTRYD_PID" || { echo "sentryd did not shut down cleanly on SIGINT"; cat "$SENTRYDLOG"; exit 1; }
grep -q "shutdown complete" "$SENTRYDLOG" || { echo "sentryd missing shutdown line"; cat "$SENTRYDLOG"; exit 1; }
rm -f "$SENTRYDLOG"

# Routed sentry chaos smoke: fleetload spawns 3 sentryd peers (each with
# a crash-safe detection journal) and a sentryrouter, replays a labeled
# fleet through the router while the seeded chaos schedule SIGKILLs and
# restarts peers, swaps the detection rules mid-run, and then proves the
# distributed contracts: zero detection mismatches against a single-node
# reference engine, exact exclusive router accounting
# (routed+degraded+shed+failed == batches), /v1/flagged answers
# byte-stable across a SIGKILL restart of every peer, and post-swap
# detections stamped with the new config version — ending in clean
# SIGINT exits from every process.
echo "==> routed sentry chaos smoke (fleetload -ring 3 -chaos 300ms -swap)"
SENTRYROUTER=/tmp/verify-sentryrouter.$$
SENTRYSTORES=/tmp/verify-sentry-stores.$$
go build -o "$SENTRYROUTER" ./cmd/sentryrouter
"$FLEETLOAD" -ring 3 -sentryd-bin "$SENTRYD" -router-bin "$SENTRYROUTER" \
	-store-dir "$SENTRYSTORES" -devices 1200 -attackers 24 -notif-abusers 12 \
	-span 12s -seed 42 -clients 16 -batch 48 -chaos 300ms -chaos-kills 2 \
	-swap -require-perfect \
	|| { echo "routed sentry chaos smoke failed"; rm -rf "$SENTRYSTORES"; exit 1; }
rm -rf "$SENTRYSTORES"
rm -f "$SENTRYD" "$FLEETLOAD" "$SENTRYROUTER"

# Benchmark regression gate: re-run every benchmark recorded in the
# committed BENCH_*.json snapshots and require each ns/op within
# BENCH_TOL percent (default 10) of its committed value, and each
# recorded allocs/op at or under its committed count. Both sides are
# min-of-BENCHCOUNT numbers (see bench.sh): the minimum is a stable
# lower bound on a shared host, since scheduler noise only inflates a
# run. A pass can still spike, so the gate takes the best of up to
# three passes — only re-running while a regression is still showing —
# and a benchmark that disappears from the fresh run fails the gate
# outright.
BENCH_TOL="${BENCH_TOL:-10}"
echo "==> bench regression gate (tolerance ${BENCH_TOL}%)"
BENCHDIR=/tmp/verify-bench.$$
mkdir -p "$BENCHDIR"
cat BENCH_static.json BENCH_vetd.json BENCH_sentry.json BENCH_sentring.json BENCH_fleet.json BENCH_sim.json >"$BENCHDIR/base.json"
BENCH_OK=0
for ATTEMPT in 1 2 3; do
	BENCHTIME=200ms BENCHCOUNT=3 \
	OUT="$BENCHDIR/run$ATTEMPT-static.json" \
	OUT_VETD="$BENCHDIR/run$ATTEMPT-vetd.json" \
	OUT_SENTRY="$BENCHDIR/run$ATTEMPT-sentry.json" \
	OUT_SENTRING="$BENCHDIR/run$ATTEMPT-sentring.json" \
	OUT_FLEET="$BENCHDIR/run$ATTEMPT-fleet.json" \
	OUT_SIM="$BENCHDIR/run$ATTEMPT-sim.json" \
		sh scripts/bench.sh >/dev/null
	cat "$BENCHDIR"/run*-*.json >"$BENCHDIR/new.json"
	if awk -v tol="$BENCH_TOL" '
		function parse(line) {
			name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
			ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
			allocs = ""
			if (line ~ /"allocs\/op": /) { allocs = line; sub(/.*"allocs\/op": /, "", allocs); sub(/[,}].*/, "", allocs) }
		}
		NR == FNR { if (/"name":/) { parse($0); base[name] = ns + 0; if (allocs != "") baseAllocs[name] = allocs + 0 }; next }
		/"name":/ {
			parse($0)
			if (!(name in best) || ns + 0 < best[name]) best[name] = ns + 0
			if (allocs != "" && (!(name in fewest) || allocs + 0 < fewest[name])) fewest[name] = allocs + 0
		}
		END {
			for (name in base) {
				if (!(name in best)) { print "bench gate: " name " missing from fresh run"; bad = 1 }
				else if (best[name] > base[name] * (1 + tol / 100)) {
					printf "bench gate: %s regressed: %.0f ns/op vs %.0f committed (+%.1f%%)\n",
						name, best[name], base[name], 100 * (best[name] / base[name] - 1)
					bad = 1
				}
			}
			# Allocation counts do not drift with the host, so they are
			# held exactly: no benchmark may allocate more per op than
			# its committed entry records.
			for (name in baseAllocs) {
				if (!(name in fewest)) { print "bench gate: " name " reports no allocs/op in the fresh run"; bad = 1 }
				else if (fewest[name] > baseAllocs[name]) {
					printf "bench gate: %s allocates %d times per op vs %d committed\n", name, fewest[name], baseAllocs[name]
					bad = 1
				}
			}
			exit bad
		}
	' "$BENCHDIR/base.json" "$BENCHDIR/new.json"; then
		BENCH_OK=1
		break
	fi
	echo "bench gate: attempt $ATTEMPT of 3 saw a regression; re-running"
done
rm -rf "$BENCHDIR"
[ "$BENCH_OK" -eq 1 ] || { echo "bench gate: regression persisted across 3 passes (raise BENCH_TOL to override a known change)"; exit 1; }

echo "verify: all checks passed"
