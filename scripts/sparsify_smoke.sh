#!/usr/bin/env bash
# End-to-end smoke of ugs_sparsify: generates a small Twitter-like graph
# with ugs_generate, sparsifies it with EMD, EMDA (absolute discrepancy),
# EMDR (relative, random backbone), GDB and LP-t, and checks that each
# run exits 0 and writes exactly round(alpha |E|) edges. Then runs EMD
# a second time with the same --seed and checks that it writes the same
# bytes. Then checks that an entropy parameter outside
# [0, 1] (--h=2, --h=nan) and a spanning backbone below |V| - 1 edges
# (--alpha=0.02 on the connected input: 91 < 199) are refused with exit
# 1 and an "error:" line, not a crash on a signal, and that an alpha
# outside (0, 1) (--alpha=1, --alpha=nan) is refused at flag parsing
# with exit 2 and an "error:" line. No refused run may write an output
# file.
#
# Usage: scripts/sparsify_smoke.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
for bin in ugs_generate ugs_sparsify; do
  if [[ ! -x "${BUILD_DIR}/${bin}" ]]; then
    echo "missing ${BUILD_DIR}/${bin}; build the tools first" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

ALPHA=0.16
"${BUILD_DIR}/ugs_generate" --dataset=twitter --scale=0.1 --seed=5 \
  --out="${WORK}/g.txt" >/dev/null
INPUT_EDGES="$(awk '/^# edges:/ {print $3; exit}' "${WORK}/g.txt")"
[[ -n "${INPUT_EDGES}" ]] || fail "no '# edges:' header in the input"
TARGET="$(awk -v a="${ALPHA}" -v m="${INPUT_EDGES}" \
  'BEGIN {printf "%d", a * m + 0.5}')"

SEED=3
for method in EMD EMDA EMDR GDB LP-t; do
  out="${WORK}/s-${method}.txt"
  "${BUILD_DIR}/ugs_sparsify" --in="${WORK}/g.txt" --out="${out}" \
    --alpha="${ALPHA}" --method="${method}" --seed="${SEED}" \
    >"${WORK}/log-${method}.txt" ||
    fail "${method} exited $?: $(cat "${WORK}/log-${method}.txt")"
  header="$(awk '/^# edges:/ {print $3; exit}' "${out}")"
  lines="$(grep -vc '^#' "${out}")"
  [[ "${header}" == "${TARGET}" && "${lines}" == "${TARGET}" ]] ||
    fail "${method} wrote ${lines} edges (header ${header}), want ${TARGET}"
  echo "ok: ${method} wrote ${TARGET} of ${INPUT_EDGES} edges"
done

"${BUILD_DIR}/ugs_sparsify" --in="${WORK}/g.txt" \
  --out="${WORK}/s-EMD-again.txt" --alpha="${ALPHA}" --method=EMD \
  --seed="${SEED}" >/dev/null ||
  fail "EMD rerun exited $?"
cmp -s "${WORK}/s-EMD.txt" "${WORK}/s-EMD-again.txt" ||
  fail "EMD wrote different bytes on a rerun with --seed=${SEED}"
echo "ok: EMD rerun with --seed=${SEED} wrote the same bytes"

for bad in "EMD ${ALPHA} 2" "GDB ${ALPHA} nan" "LP-t 0.02 0.05"; do
  read -r method alpha h <<<"${bad}"
  flags="--method=${method} --alpha=${alpha} --h=${h}"
  status=0
  "${BUILD_DIR}/ugs_sparsify" --in="${WORK}/g.txt" --out="${WORK}/bad.txt" \
    ${flags} >/dev/null 2>"${WORK}/err.txt" || status=$?
  [[ "${status}" == 1 ]] || fail "${flags} exited ${status}, want 1"
  grep -q '^error: ' "${WORK}/err.txt" ||
    fail "${flags} printed no 'error:' line"
  [[ ! -e "${WORK}/bad.txt" ]] || fail "${flags} wrote an output file"
  echo "ok: ${flags} refused"
done

for alpha in 1 nan; do
  status=0
  "${BUILD_DIR}/ugs_sparsify" --in="${WORK}/g.txt" --out="${WORK}/bad.txt" \
    --alpha="${alpha}" --method=GDB >/dev/null 2>"${WORK}/err.txt" ||
    status=$?
  [[ "${status}" == 2 ]] || fail "--alpha=${alpha} exited ${status}, want 2"
  grep -q '^error: ' "${WORK}/err.txt" ||
    fail "--alpha=${alpha} printed no 'error:' line"
  [[ ! -e "${WORK}/bad.txt" ]] || fail "--alpha=${alpha} wrote an output file"
  echo "ok: --alpha=${alpha} refused"
done

echo "sparsify smoke passed"
