#!/bin/sh
# bench.sh — benchmark emitter for the static-analysis pipeline and the
# serving planes. Three passes: the corpus-scan throughput benchmark
# plus the per-tier analyzer benchmarks are written to BENCH_static.json,
# the vetting-plane benchmarks (single-node vetd cold/warm, the vetring
# ring healthy vs one-peer-down) to BENCH_vetd.json, and the streaming
# detection ingest benchmark (a full labeled-fleet replay through
# sentryd's HTTP stack) to BENCH_sentry.json, the multi-node sentry
# benchmark (a fleet replay through the sentring router, healthy vs
# one-peer-down) to BENCH_sentring.json, and the device-fleet
# benchmarks (population generation, the 200-device market-weighted
# sweep at 1 and 4 workers, its per-trial construction layer:
# seeding one random stream, one stream's life at 8, 100 and 1000
# draws, and assembling one faulted stack, and the two event layers
# every trial runs on: one Binder call with its delivery and one clock
# event, each with its allocations) to BENCH_fleet.json — all at the
# repo root so throughput regressions show up as a diff, not an
# anecdote. Run from anywhere:
#
#     sh scripts/bench.sh
#     BENCHTIME=10x sh scripts/bench.sh       # steadier numbers
#     BENCHCOUNT=3 sh scripts/bench.sh        # min of 3 runs per benchmark
#     OUT=/tmp/b.json sh scripts/bench.sh     # static output elsewhere
#
# To regenerate the committed snapshots, use the same settings the
# verify.sh regression gate measures with, so the two sides compare
# like with like:
#
#     BENCHTIME=200ms BENCHCOUNT=3 sh scripts/bench.sh
#     OUT_VETD=/tmp/v.json sh scripts/bench.sh
#     OUT_SENTRY=/tmp/s.json sh scripts/bench.sh
#     OUT_SENTRING=/tmp/r.json sh scripts/bench.sh
#     OUT_FLEET=/tmp/f.json sh scripts/bench.sh
#
# Each benchmark entry records the go test line verbatim: iterations,
# ns/op, and every custom metric (apps/sec, %static-precision,
# %cache-hit, %replicated, failovers/op, ...). Absolute numbers are
# host-dependent; the committed files are snapshots, and the ratios —
# per-tier analysis cost, warm-vs-cold serving, healthy-vs-failover —
# are the part expected to stay comparable across machines.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
BENCHCOUNT="${BENCHCOUNT:-1}"
OUT="${OUT:-BENCH_static.json}"
OUT_VETD="${OUT_VETD:-BENCH_vetd.json}"
OUT_SENTRY="${OUT_SENTRY:-BENCH_sentry.json}"
OUT_SENTRING="${OUT_SENTRING:-BENCH_sentring.json}"
OUT_FLEET="${OUT_FLEET:-BENCH_fleet.json}"

# emit PATTERN SUITE OUTFILE — run the matching benchmarks and write the
# parsed results as JSON. With BENCHCOUNT > 1 each benchmark runs that
# many times and the entry with the lowest ns/op wins: the minimum is a
# stable lower bound on a shared host (scheduler noise only inflates a
# run, never deflates it), which is what lets verify.sh hold a tight
# regression tolerance against the committed snapshots.
emit() {
	TMP="$(mktemp)"
	go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$TMP"
	awk -v go_version="$(go env GOVERSION)" -v benchtime="$BENCHTIME" -v benchcount="$BENCHCOUNT" -v suite="$2" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		entry = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3)
		metrics = ""
		for (i = 5; i < NF; i += 2) {
			metrics = metrics (metrics == "" ? "" : ", ") "\"" $(i + 1) "\": " $i
		}
		if (metrics != "") entry = entry ", \"metrics\": {" metrics "}"
		if (!(name in ns)) { order[n++] = name }
		if (!(name in ns) || $3 + 0 < ns[name]) { ns[name] = $3 + 0; entries[name] = entry "}" }
	}
	/^cpu:/ { cpu = $0; sub(/^cpu: /, "", cpu) }
	END {
		printf "{\n"
		printf "  \"suite\": \"%s\",\n", suite
		printf "  \"go\": \"%s\",\n", go_version
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"benchcount\": %d,\n", benchcount
		printf "  \"benchmarks\": [\n"
		for (i = 0; i < n; i++) printf "%s%s\n", entries[order[i]], (i < n - 1 ? "," : "")
		printf "  ]\n}\n"
	}
	' "$TMP" >"$3"
	rm -f "$TMP"
	echo "bench: wrote $3"
}

emit 'CorpusScan$|AnalyzeTier' static "$OUT"
emit 'VetServe$|RingServe$' vetd "$OUT_VETD"
emit 'SentryIngest$' sentry "$OUT_SENTRY"
emit 'RouterIngest$' sentring "$OUT_SENTRING"
emit 'FleetGenerate$|FleetSweep$|SimrandNew$|SimrandStream$|Assemble$|BinderCall$|SimClock$' fleet "$OUT_FLEET"
