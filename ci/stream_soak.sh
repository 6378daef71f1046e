#!/usr/bin/env bash
# Crash-recovery gate for the streaming pipeline (src/stream): kill the
# long-running service at every stage of its journal-before-apply /
# journal-before-noise protocol, restart it with the same flags, and
# require that the resumed run converges to the SAME terminal graph state
# an uninterrupted run reaches — bit-identical fingerprint, delta counts,
# modularity and cluster count — with a ledger that audits clean (no ε
# double-spend) after every kill/restart cycle.
#
# Publish counts and cumulative ε are deliberately NOT compared:
# publication is at-least-once (a crash between the ledger commit and the
# WAL publish mark re-arms the trigger), so an extra accounted charge is
# legal; an unaccounted one is what the audit gate catches.
#
# Usage: ci/stream_soak.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SVC="$BUILD/examples/streaming_service"
if [[ ! -x "$SVC" ]]; then
  echo "FAIL: $SVC not built (run cmake --build $BUILD first)" >&2
  exit 1
fi
ITERS="${PRIVREC_STREAM_ITERS:-80}"
SCRATCH=stream-soak-scratch
rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

run_svc() {  # run_svc <dir> [extra args...]
  local dir="$1"
  shift
  "$SVC" --dir="$dir" --iters="$ITERS" "$@"
}

# The comparable core of the "state:" line: everything up to the
# informational publishes/eps_spent fields.
state_core() {  # state_core <log>
  sed -n 's/^state: \(.*\) publishes=.*$/\1/p' "$1"
}

# Reference: an uninterrupted run, plus a second clean run that must
# reproduce the full state line verbatim (schedule determinism).
run_svc "$SCRATCH/ref" > "$SCRATCH/ref.log"
run_svc "$SCRATCH/ref2" > "$SCRATCH/ref2.log"
REF_STATE="$(grep '^state: ' "$SCRATCH/ref.log")"
REF_CORE="$(state_core "$SCRATCH/ref.log")"
if [[ -z "$REF_CORE" ]]; then
  echo "FAIL: reference run printed no state line" >&2
  exit 1
fi
if [[ "$(grep '^state: ' "$SCRATCH/ref2.log")" != "$REF_STATE" ]]; then
  echo "FAIL: two clean runs disagree on the state line" >&2
  diff <(echo "$REF_STATE") <(grep '^state: ' "$SCRATCH/ref2.log") >&2 || true
  exit 1
fi
run_svc "$SCRATCH/ref" --audit-ledger > /dev/null
echo "reference: $REF_STATE"

# The crash matrix: one induced failure per journaling stage — WAL append
# (clean error and torn frame), WAL fsync, ledger intent/commit append
# (clean and torn), the post-journal pre-release window, and the artifact
# temp-write / rename / reopen stages of a publish. Each case runs with
# the fault armed (exit 2 = the induced crash; exit 0 = the fault landed
# in a tolerated path, e.g. a swap that rolled back), then reruns clean
# and must resume to the reference state with a clean audit.
FAULTS=(
  "stream.wal.append=io_error@7"
  "stream.wal.append=short_read@9"
  "stream.wal.sync=io_error@5"
  "ledger.append=io_error@2"
  "ledger.append=short_read@3"
  "dynamic.after_journal=io_error@1"
  "artifact.write=io_error@2"
  "artifact.rename=io_error@2"
  "artifact.open=io_error@3"
)
case_no=0
for fault in "${FAULTS[@]}"; do
  case_no=$((case_no + 1))
  dir="$SCRATCH/case$case_no"
  rc=0
  run_svc "$dir" --faults="$fault" > "$dir.crash.log" 2>&1 || rc=$?
  if [[ $rc -ne 0 && $rc -ne 2 ]]; then
    echo "FAIL: fault '$fault' exited $rc (want 0 or 2)" >&2
    cat "$dir.crash.log" >&2
    exit 1
  fi
  run_svc "$dir" > "$dir.resume.log"
  core="$(state_core "$dir.resume.log")"
  if [[ "$core" != "$REF_CORE" ]]; then
    echo "FAIL: fault '$fault' resumed to a different state" >&2
    diff <(echo "$REF_CORE") <(echo "$core") >&2 || true
    exit 1
  fi
  run_svc "$dir" --audit-ledger > "$dir.audit.log"
  echo "  case $case_no ($fault): crash rc=$rc, resumed bit-identical," \
       "audit clean"
done

# Double-kill: two different crashes in the SAME journal (ledger intent,
# then a torn WAL frame on the restarted run) must still converge.
dir="$SCRATCH/double"
rc=0
run_svc "$dir" --faults="dynamic.after_journal=io_error@1" \
  > "$dir.crash1.log" 2>&1 || rc=$?
[[ $rc -eq 0 || $rc -eq 2 ]]
rc=0
run_svc "$dir" --faults="stream.wal.append=short_read@20" \
  > "$dir.crash2.log" 2>&1 || rc=$?
[[ $rc -eq 0 || $rc -eq 2 ]]
run_svc "$dir" > "$dir.resume.log"
if [[ "$(state_core "$dir.resume.log")" != "$REF_CORE" ]]; then
  echo "FAIL: double-crash run resumed to a different state" >&2
  exit 1
fi
run_svc "$dir" --audit-ledger > /dev/null
echo "  double-kill: two crash/restart cycles, resumed bit-identical," \
     "audit clean"

rm -rf "$SCRATCH"
echo "stream soak: ${#FAULTS[@]} crash cases + double-kill all resume to" \
     "the reference fingerprint with clean ε audits"
