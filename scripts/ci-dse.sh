#!/usr/bin/env bash
# CI gate for the design-space explorer (DESIGN.md §13). Checks, in
# order:
#
# 1. **Cold/warm byte-identity** — `uecgra dse --json` against a
#    persistent evaluation cache must produce byte-identical reports
#    on a cold (empty) and a warm (fully populated) cache. The warm
#    run has nothing new to save, so it must leave the cache file's
#    bytes and mtime untouched. With one entry cut from the file, the
#    next run re-measures it and really rewrites the file, and the
#    rewrite must reproduce the cold bytes exactly. (A `touch` alone
#    forces no rewrite: the stamp a save compares against is taken
#    when the file is loaded.)
# 2. **Memoization win** — the warm Table II sweep must cost at most
#    UECGRA_SMOKE_MAX_WARM_RATIO (default 0.2) of the cold one, via
#    the smoke harness's dse leg (which also enforces cold/warm value
#    identity and the frontier-dominates-greedy gate on every kernel).
# 3. **Thread-count determinism** — the full `dse_sweep` report must
#    be byte-identical between UECGRA_THREADS=1 and 8.
# 4. **Schema round-trip** — the schema-v3 dse reports must survive
#    `uecgra check-report` (parse + canonical re-render, byte compare).
#
# Usage: ci-dse.sh [--bench-out BENCH_dse.json]  (forwarded to the
# smoke harness's dse leg so CI can archive the measurements).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_OUT=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --bench-out) BENCH_OUT="$2"; shift 2 ;;
        *) echo "ci-dse: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release -q -p uecgra-core -p uecgra-bench \
    --bin uecgra --bin dse_sweep --bin smoke_timing

SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "== CLI: cold vs warm cache, byte compare"
cat > "${SCRATCH}/accumulate.loop" <<'EOF'
array src @ 16;
array dst @ 128;
for i in 0..32 carry (acc = 0) {
    acc = acc + src[i];
    dst[i] = acc;
}
EOF
./target/release/uecgra dse "${SCRATCH}/accumulate.loop" \
    --cache "${SCRATCH}/cache.json" --json "${SCRATCH}/cold.json"
cp "${SCRATCH}/cache.json" "${SCRATCH}/cache-cold.json"
COLD_MTIME="$(stat -c %y "${SCRATCH}/cache.json")"
./target/release/uecgra dse "${SCRATCH}/accumulate.loop" \
    --cache "${SCRATCH}/cache.json" --json "${SCRATCH}/warm.json"
cmp "${SCRATCH}/cold.json" "${SCRATCH}/warm.json"
cmp "${SCRATCH}/cache.json" "${SCRATCH}/cache-cold.json"
if [ "$(stat -c %y "${SCRATCH}/cache.json")" != "${COLD_MTIME}" ]; then
    echo "ci-dse: the warm run rewrote an unchanged cache file" >&2
    exit 1
fi
echo "== CLI: a cache missing one entry is rewritten, byte-identical"
# Lines 4-7 of the canonical rendering are the first entry.
sed -i '4,7d' "${SCRATCH}/cache.json"
./target/release/uecgra dse "${SCRATCH}/accumulate.loop" \
    --cache "${SCRATCH}/cache.json" 2> "${SCRATCH}/rewrite.err" > /dev/null
grep -q '^wrote .* cache entries' "${SCRATCH}/rewrite.err" || {
    echo "ci-dse: a cache that gained an entry was not rewritten" >&2
    cat "${SCRATCH}/rewrite.err" >&2
    exit 1
}
cmp "${SCRATCH}/cache.json" "${SCRATCH}/cache-cold.json"
./target/release/uecgra check-report "${SCRATCH}/cold.json"

echo "== sweep: 1 vs 8 threads, byte compare"
UECGRA_THREADS=1 ./target/release/dse_sweep --json "${SCRATCH}/sweep-t1.json"
UECGRA_THREADS=8 ./target/release/dse_sweep --json "${SCRATCH}/sweep-t8.json"
cmp "${SCRATCH}/sweep-t1.json" "${SCRATCH}/sweep-t8.json"
./target/release/uecgra check-report "${SCRATCH}/sweep-t1.json"

echo "== sweep: memoization + dominance + trajectory gates"
export UECGRA_SMOKE_MAX_WARM_RATIO="${UECGRA_SMOKE_MAX_WARM_RATIO:-0.2}"
if [ -n "${BENCH_OUT}" ]; then
    ./target/release/smoke_timing dse --bench-out "${BENCH_OUT}"
else
    ./target/release/smoke_timing dse
fi

echo "ci-dse: all gates passed"
