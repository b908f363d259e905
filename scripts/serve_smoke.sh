#!/usr/bin/env bash
# End-to-end smoke of the serving layer: starts ugs_serve over a directory
# of generated graphs with an eviction-forcing 1-session registry budget,
# runs every query kind through ugs_client, diffs each JSON answer against
# ugs_query on the same graph file (byte-identical is the contract),
# re-runs one query to check repeat answers are byte-stable (the result
# cache's hit path when it is enabled), reweights one edge through the
# wire and re-runs every diff against an equivalently mutated text file,
# checks the stats verb reports evictions, the update, and the bumped
# version (and cache hits when caching), and shuts the daemon down
# cleanly.
#
# Usage: scripts/serve_smoke.sh [build_dir] [extra ugs_serve flags...]
#   e.g. scripts/serve_smoke.sh build --cache-entries=64
#        scripts/serve_smoke.sh build --no-telemetry
set -euo pipefail

# Both arguments are optional: a leading --flag means the build dir was
# omitted and everything belongs to ugs_serve.
BUILD_DIR="build"
if [[ $# -gt 0 && "$1" != --* ]]; then
  BUILD_DIR="$1"
  shift
fi
EXTRA_FLAGS=("$@")
for bin in ugs_generate ugs_serve ugs_client ugs_query ugs_pack; do
  if [[ ! -x "${BUILD_DIR}/${bin}" ]]; then
    echo "missing ${BUILD_DIR}/${bin}; build the tools first" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [[ -n "${SERVE_PID}" ]] && kill -0 "${SERVE_PID}" 2>/dev/null; then
    kill -KILL "${SERVE_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

mkdir -p "${WORK}/graphs"
"${BUILD_DIR}/ugs_generate" --dataset=er --vertices=60 --edges=150 --seed=7 \
  --out="${WORK}/graphs/g1.txt" > /dev/null
"${BUILD_DIR}/ugs_generate" --dataset=er --vertices=40 --edges=90 --seed=8 \
  --out="${WORK}/graphs/g2.txt" > /dev/null
"${BUILD_DIR}/ugs_generate" --dataset=er --vertices=30 --edges=70 --seed=9 \
  --out="${WORK}/graphs/g3.txt" > /dev/null

# Pack g1 into the binary mmap format next to its text form. The server
# prefers g1.ugsc for the extensionless id, so every g1 answer below is
# served off the mmap path -- while the ugs_query side of each diff still
# parses g1.txt. Byte-identical diffs therefore prove the mmap view and
# the text parse are the same graph end to end.
"${BUILD_DIR}/ugs_pack" --in="${WORK}/graphs/g1.txt" \
  --out="${WORK}/graphs/g1.ugsc" --verify > /dev/null

# --max-sessions=1 forces an eviction every time the query loop below
# switches graphs -- the smoke exercises the LRU path, not just the cache.
# Extra flags (result-cache budgets, --no-telemetry) ride along from
# the command line.
"${BUILD_DIR}/ugs_serve" --dir="${WORK}/graphs" --port=0 --workers=2 \
  --max-sessions=1 --port-file="${WORK}/port" ${EXTRA_FLAGS[@]+"${EXTRA_FLAGS[@]}"} \
  > "${WORK}/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [[ -s "${WORK}/port" ]] && break
  if ! kill -0 "${SERVE_PID}" 2>/dev/null; then
    echo "ugs_serve died during startup:" >&2
    cat "${WORK}/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
PORT="$(cat "${WORK}/port")"
echo "ugs_serve up on port ${PORT} (pid ${SERVE_PID})" \
     "flags: ${EXTRA_FLAGS[*]:-"(defaults)"}"

# Every query kind, interleaved across the three graphs so the 1-entry
# registry evicts between consecutive queries.
QUERIES=(reliability connectivity shortest-path pagerank clustering knn \
         most-probable-path)
CHECKS=0
for query in "${QUERIES[@]}"; do
  for g in g1 g2 g3; do
    "${BUILD_DIR}/ugs_client" --port="${PORT}" --graph="${g}" \
      --query="${query}" --samples=64 --pairs=4 --sources=2 --k=3 --seed=5 \
      --json > "${WORK}/client.json"
    "${BUILD_DIR}/ugs_query" --in="${WORK}/graphs/${g}.txt" \
      --query="${query}" --samples=64 --pairs=4 --sources=2 --k=3 --seed=5 \
      --json > "${WORK}/query.json"
    if ! diff "${WORK}/client.json" "${WORK}/query.json"; then
      echo "MISMATCH: ${query} on ${g} differs between ugs_client and" \
           "ugs_query" >&2
      exit 1
    fi
    CHECKS=$((CHECKS + 1))
  done
done
echo "${CHECKS} served answers byte-identical to local ugs_query"

# Repeat one query verbatim: the answer must be byte-stable across runs.
# With the result cache enabled the second run is the hit path, so this
# is the cache's byte-identity check end to end. The second run adds
# --timing, which must go entirely to stderr -- the stdout diff below
# doubles as that check.
"${BUILD_DIR}/ugs_client" --port="${PORT}" --graph=g1 --query=reliability \
  --samples=64 --pairs=4 --seed=5 --json > "${WORK}/repeat1.json"
"${BUILD_DIR}/ugs_client" --port="${PORT}" --graph=g1 --query=reliability \
  --samples=64 --pairs=4 --seed=5 --json --timing \
  > "${WORK}/repeat2.json" 2> "${WORK}/timing.log"
if ! diff "${WORK}/repeat1.json" "${WORK}/repeat2.json"; then
  echo "MISMATCH: repeated query is not byte-stable" >&2
  exit 1
fi
if ! grep -q '^timing: graph=g1 query=reliability rtt_ms=' \
    "${WORK}/timing.log"; then
  echo "--timing printed no round-trip line to stderr" >&2
  exit 1
fi
echo "repeated query byte-stable (--timing on stderr only)"

# The update leg: reweight one edge of g2 through the wire, then re-run
# every byte-diff with the local side of g2 pointing at an equivalently
# mutated text file. Byte-identical diffs prove the in-memory mutation
# is exactly the text-level edit -- and that g1/g3 were left untouched.
read -r U V < <(awk '!/^#/ {print $1, $2; exit}' "${WORK}/graphs/g2.txt")
awk -v u="${U}" -v v="${V}" \
  '!/^#/ && $1 == u && $2 == v && !done {print u, v, "0.9"; done=1; next} \
   {print}' "${WORK}/graphs/g2.txt" > "${WORK}/g2_mut.txt"
"${BUILD_DIR}/ugs_client" --port="${PORT}" --graph=g2 \
  --update="reweight:${U}:${V}:0.9" > "${WORK}/update.log"
if ! grep -q '^update: graph=g2 applied=1 version=2$' "${WORK}/update.log"; then
  echo "unexpected update ack:" >&2
  cat "${WORK}/update.log" >&2
  exit 1
fi
UPDATE_CHECKS=0
for query in "${QUERIES[@]}"; do
  for g in g1 g2 g3; do
    local_in="${WORK}/graphs/${g}.txt"
    [[ "${g}" == g2 ]] && local_in="${WORK}/g2_mut.txt"
    "${BUILD_DIR}/ugs_client" --port="${PORT}" --graph="${g}" \
      --query="${query}" --samples=64 --pairs=4 --sources=2 --k=3 --seed=5 \
      --json > "${WORK}/client.json"
    "${BUILD_DIR}/ugs_query" --in="${local_in}" \
      --query="${query}" --samples=64 --pairs=4 --sources=2 --k=3 --seed=5 \
      --json > "${WORK}/query.json"
    if ! diff "${WORK}/client.json" "${WORK}/query.json"; then
      echo "MISMATCH after update: ${query} on ${g} differs between" \
           "ugs_client and ugs_query" >&2
      exit 1
    fi
    UPDATE_CHECKS=$((UPDATE_CHECKS + 1))
  done
done
echo "${UPDATE_CHECKS} post-update answers byte-identical to local ugs_query"
# One more g2 query so the 1-entry registry's resident session (the
# stats snapshot below) is g2 -- reopened and replayed at version 2.
"${BUILD_DIR}/ugs_client" --port="${PORT}" --graph=g2 --query=reliability \
  --samples=64 --pairs=4 --seed=5 --json > /dev/null

STATS="$("${BUILD_DIR}/ugs_client" --port="${PORT}" --stats)"
echo "stats: ${STATS}"
# The registry object is the last of the three stats objects, so an
# "evictions":0 after "registry": can only be the registry's counter
# (the cache's own evictions counter appears earlier).
case "${STATS}" in
  *'"registry":'*'"evictions":0'*)
    echo "expected registry evictions under --max-sessions=1, got none" >&2
    exit 1
    ;;
esac
# g1 is packed: its opens must be counted on the mmap side, and g2/g3
# (text-only) on the text side.
case "${STATS}" in
  *'"opens_mmap":0'*)
    echo "expected mmap opens for the packed g1.ugsc, got none" >&2
    exit 1
    ;;
esac
case "${STATS}" in
  *'"opens_text":0'*)
    echo "expected text opens for g2/g3, got none" >&2
    exit 1
    ;;
esac
echo "registry served both storage kinds (opens_text/opens_mmap > 0)"
# The update above must be counted, and g2's resident session must
# report its bumped version.
case "${STATS}" in
  *'"updates":1'*) ;;
  *)
    echo "expected \"updates\":1 in the registry stats after the update" >&2
    exit 1
    ;;
esac
case "${STATS}" in
  *'"id":"g2"'*'"version":2'*)
    echo "registry reports g2 at version 2 after the update"
    ;;
  *)
    echo "expected g2 resident at \"version\":2 in the registry stats" >&2
    exit 1
    ;;
esac
case " ${EXTRA_FLAGS[*]:-} " in
  *--cache-*)
    # Caching was requested: the repeat above must have hit.
    case "${STATS}" in
      *'"cache":{"enabled":true,"hits":0,'*)
        echo "result cache enabled but the repeated query never hit" >&2
        exit 1
        ;;
      *'"cache":{"enabled":true'*)
        echo "result cache hit path covered"
        ;;
      *)
        echo "expected an enabled result cache in stats" >&2
        exit 1
        ;;
    esac
    ;;
esac

# The Prometheus sub-verb: the exposition must parse as text and name the
# request counter. With spans on, every query above landed in some kind=
# series, so the request-latency histogram count is nonzero; with
# --no-telemetry no span is recorded, so the stats JSON must say so.
"${BUILD_DIR}/ugs_client" --port="${PORT}" --metrics > "${WORK}/metrics.txt"
case "$(cat "${WORK}/metrics.txt")" in
  *ugs_requests_total*) ;;
  *)
    echo "metrics exposition lacks ugs_requests_total:" >&2
    cat "${WORK}/metrics.txt" >&2
    exit 1
    ;;
esac
case " ${EXTRA_FLAGS[*]:-} " in
  *" --no-telemetry "*)
    case "${STATS}" in
      *'"telemetry":{"enabled":false,'*'"spans_recorded":0,'*) ;;
      *)
        echo "expected \"enabled\":false and \"spans_recorded\":0 with" \
          "--no-telemetry" >&2
        exit 1
        ;;
    esac
    echo "telemetry off: no spans recorded, counters live"
    ;;
  *)
    HISTO_COUNT="$(awk '$1 ~ /^ugs_request_latency_seconds_count/ \
      {sum += $2} END {printf "%d", sum}' "${WORK}/metrics.txt")"
    if [[ "${HISTO_COUNT}" -le 0 ]]; then
      echo "request-latency histogram count is zero in the exposition" >&2
      cat "${WORK}/metrics.txt" >&2
      exit 1
    fi
    echo "metrics exposition OK (request histogram count=${HISTO_COUNT})"
    ;;
esac
# The update surfaces in the exposition: the batch counter moved and the
# per-graph version gauge names g2 at 2.
if ! grep -q '^ugs_updates_total 1$' "${WORK}/metrics.txt"; then
  echo "expected ugs_updates_total 1 in the exposition" >&2
  cat "${WORK}/metrics.txt" >&2
  exit 1
fi
if ! grep -q '^ugs_graph_version{graph="g2"} 2$' "${WORK}/metrics.txt"; then
  echo "expected ugs_graph_version{graph=\"g2\"} 2 in the exposition" >&2
  cat "${WORK}/metrics.txt" >&2
  exit 1
fi
echo "update counters in the exposition (ugs_updates_total, ugs_graph_version)"

# The stats JSON grew a telemetry section (additive; the smoke's older
# greps above are untouched and still pass).
case "${STATS}" in
  *'"telemetry":{"enabled":'*) ;;
  *)
    echo "stats JSON lacks the telemetry section" >&2
    exit 1
    ;;
esac

kill -TERM "${SERVE_PID}"
if ! wait "${SERVE_PID}"; then
  echo "ugs_serve did not shut down cleanly:" >&2
  cat "${WORK}/serve.log" >&2
  exit 1
fi
SERVE_PID=""
echo "clean shutdown; serve log:"
cat "${WORK}/serve.log"
echo "serve smoke OK"
