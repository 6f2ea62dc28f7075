#!/bin/sh
# Tier-1 gate (see ROADMAP.md): full build, the whole test suite, the
# ~2 s observability smoke check — instrumented-runner parity plus its
# overhead budget (target <=2%, hard gate 10% to absorb CI timing noise) —
# and the differential-fuzzing smoke gate: a seeded `streamtok fuzz --smoke`
# must find zero mismatches, and an artificially injected engine bug must be
# caught and shrunk to a <=64-byte repro (the find->shrink->repro pipeline
# proves itself on every run).
set -e
cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== bench smoke (instrumented-runner parity + overhead, disabled-tracer cost)"
dune exec bench/main.exe -- smoke

echo "== trace gate (enabled-tracer overhead <=15%, serve-span attribution >=90%)"
# Hard checks live inside the bench: token-count parity with the tracer
# recording, the enabled-tracer overhead gate on the chunked words
# workload, a non-empty state-heat table from the instrumented heat
# runner, and >=90% of a traced loopback serve run's wall time attributed
# by the span-tree report.
dune exec bench/main.exe -- trace

echo "== compress gate (classed/dense parity + classed tables <= dense bytes)"
# Hard checks live inside the bench: same minimal DFA size, byte-identical
# token streams on workload data, classed <= dense bytes per grammar, and
# the >=4x corpus-wide byte-reduction floor. Throughput timing is skipped
# here to keep the gate fast and CI-noise-free.
dune exec bench/main.exe -- compress-check

echo "== accel gate (skip-loop parity + analysis coverage + skip ratios)"
# Hard checks live inside the bench: byte-identical accel/noaccel token
# streams on every corpus grammar and synthetic workload, at least one
# accelerable state per bounded corpus grammar, and >=50% skip ratio on
# the run-heavy workloads. Throughput timing (speedup floor, run-poor
# overhead gate) is skipped here to keep the gate fast and CI-noise-free.
dune exec bench/main.exe -- accel-check

echo "== swar gate (SWAR classification, 3-way parity, quick speedup floor)"
# Hard checks live inside the bench: the words and json-strings workloads
# must classify at least one SWAR state, the SWAR / bitmap-only / noaccel
# builds must produce byte-identical token streams, >=50% of skipped
# bytes must flow through SWAR-classified scans, and a best-of-3 timing
# must clear a lenient 1.5x SWAR-vs-bitmap floor (the full `bench accel`
# enforces the hard 2x gate).
dune exec bench/main.exe -- swar-check

# The stats surface must expose the classification: a json run carries at
# least one state in the SWAR tier.
swar_states=$(dune exec -- streamtok stats json < /dev/null \
  | grep -o '"name":"accel_swar_states","type":"gauge","value":[0-9]*' \
  | grep -o '[0-9]*$' || true)
if [ -z "$swar_states" ] || [ "$swar_states" -lt 1 ]; then
  echo "swar gate FAILED: stats json reports no SWAR states"
  dune exec -- streamtok stats json < /dev/null || true
  exit 1
fi

echo "== bpe gate (vendored-vocab drift, audit, parity vs merge loop, bounded K)"
# Hard checks live inside the bench: the vendored vocabulary must equal
# Trainer.mini (), pass the munch-consistency audit, and the DFA engine's
# token ids must equal the reference merge-loop encoder on every parity
# input, batch and chunked. Throughput timing is skipped here.
dune exec bench/main.exe -- bpe-check

echo "== bpe analyze smoke (finite max-TND at vocab scale)"
out=$(dune exec -- streamtok bpe analyze test/vocab/mini.tiktoken)
echo "$out" | grep '^max-TND:'
if ! echo "$out" | grep -q '^max-TND:   [0-9][0-9]*$'; then
  echo "bpe analyze FAILED: max-TND not finite"
  echo "$out"
  exit 1
fi

echo "== fuzz smoke (differential battery, seeded + deterministic)"
dune exec -- streamtok fuzz --smoke --seed 42

echo "== fuzz self-test (injected engine bug must be caught and shrunk)"
tmpd=$(mktemp -d)
if dune exec -- streamtok fuzz --iters 2 --seconds 0 --seed 7 --inject-bug \
    --corpus-dir "$tmpd" > /dev/null 2>&1; then
  echo "fuzz self-test FAILED: injected bug not caught"
  rm -rf "$tmpd"
  exit 1
fi
for f in "$tmpd"/*.repro; do
  hex=$(grep 'input-hex:' "$f" | awk '{print $2}')
  if [ "${#hex}" -gt 128 ]; then
    echo "fuzz self-test FAILED: repro not shrunk to <=64 bytes: $f"
    rm -rf "$tmpd"
    exit 1
  fi
done
rm -rf "$tmpd"

echo "== serve smoke (daemon parity, zero-copy decode, engine cache, client abort, SIGTERM drain)"
# Use the installed binary directly: the daemon and clients run
# concurrently, and parallel `dune exec` invocations would fight over the
# build lock.
BIN=_build/install/default/bin/streamtok
tmpd=$(mktemp -d)
sock="$tmpd/st.sock"
"$BIN" serve --socket "$sock" --idle-timeout 30 > "$tmpd/serve.log" 2>&1 &
srv=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve smoke FAILED: daemon did not come up"
    cat "$tmpd/serve.log"
    rm -rf "$tmpd"
    exit 1
  fi
  sleep 0.1
done

# first contact: a small straddle-free run must record zero decoder
# copies — every frame fits the fresh decoder buffer whole, so the
# zero-copy view path never has to compact or grow with live bytes.
# (The larger runs below use 64 KiB FEED frames, which legitimately
# force buffer growth, so this must be the first client the daemon
# sees.)
"$BIN" gen json --bytes 2000 --seed 3 > "$tmpd/small.json"
"$BIN" client --socket "$sock" json "$tmpd/small.json" --stats \
  > /dev/null 2> "$tmpd/stats0.json"
if ! grep -q '"name":"decoder_copies","type":"counter","value":0[,}]' \
  "$tmpd/stats0.json"; then
  echo "serve smoke FAILED: decoder copied bytes on a straddle-free run"
  cat "$tmpd/stats0.json"
  rm -rf "$tmpd"
  exit 1
fi

"$BIN" gen json --bytes 200000 --seed 9 > "$tmpd/in.json"
"$BIN" tokenize json "$tmpd/in.json" > "$tmpd/ref.out"

# 3 concurrent same-grammar sessions, each byte-for-byte identical to
# batch tokenize
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.1" &
c1=$!
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.2" &
c2=$!
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.3" &
c3=$!
clients_failed=0
for job in "$c1" "$c2" "$c3"; do
  wait "$job" || clients_failed=1
done
if [ "$clients_failed" -ne 0 ]; then
  echo "serve smoke FAILED: a client exited non-zero"
  rm -rf "$tmpd"
  exit 1
fi
for n in 1 2 3; do
  if ! cmp -s "$tmpd/ref.out" "$tmpd/out.$n"; then
    echo "serve smoke FAILED: client $n output differs from tokenize"
    rm -rf "$tmpd"
    exit 1
  fi
done

# kill a client mid-stream: the daemon must stay up and drop the session
fifo="$tmpd/fifo"
mkfifo "$fifo"
"$BIN" client --socket "$sock" json < "$fifo" > /dev/null 2>&1 &
cpid=$!
exec 9> "$fifo"
head -c 1000 "$tmpd/in.json" >&9
sleep 0.3
kill -9 "$cpid" 2> /dev/null || true
exec 9>&-
wait "$cpid" 2> /dev/null || true
sleep 0.3
if ! kill -0 "$srv" 2> /dev/null; then
  echo "serve smoke FAILED: daemon died after client abort"
  rm -rf "$tmpd"
  exit 1
fi

# one STATS probe: the aborted session must be evicted (only the probe's
# own session is live) and N same-grammar sessions must have cost exactly
# one engine compile
"$BIN" client --socket "$sock" json "$tmpd/in.json" --stats \
  > /dev/null 2> "$tmpd/stats.json"
if ! grep -q '"name":"engine_cache_compiles","type":"counter","value":1[,}]' \
  "$tmpd/stats.json"; then
  echo "serve smoke FAILED: expected exactly one engine compile"
  cat "$tmpd/stats.json"
  rm -rf "$tmpd"
  exit 1
fi
if ! grep -q '"name":"sessions","type":"gauge","value":1[,}]' \
  "$tmpd/stats.json"; then
  echo "serve smoke FAILED: aborted session not evicted"
  cat "$tmpd/stats.json"
  rm -rf "$tmpd"
  exit 1
fi

# BPE token-id session: OPEN_BPE + IDS frames through the daemon must
# equal the local engine's `tokenize --ids` on the same input. (After the
# cache probe: the BPE engine is a second cache entry.)
"$BIN" tokenize bpe:test/vocab/mini.tiktoken "$tmpd/small.json" --ids \
  > "$tmpd/ids.ref"
"$BIN" client --socket "$sock" bpe:test/vocab/mini.tiktoken \
  "$tmpd/small.json" --ids > "$tmpd/ids.out"
if ! cmp -s "$tmpd/ids.ref" "$tmpd/ids.out"; then
  echo "serve smoke FAILED: BPE ids over the wire differ from tokenize --ids"
  rm -rf "$tmpd"
  exit 1
fi

# SIGTERM: drain and exit 0, unlinking the socket
kill -TERM "$srv"
if ! wait "$srv"; then
  echo "serve smoke FAILED: daemon did not exit 0 on SIGTERM"
  rm -rf "$tmpd"
  exit 1
fi
if [ -e "$sock" ]; then
  echo "serve smoke FAILED: socket file left behind"
  rm -rf "$tmpd"
  exit 1
fi
rm -rf "$tmpd"

echo "== fd-bound check (ulimit -n 24: overflow refused, daemon lives)"
# More concurrent clients than the daemon has fds: stdio, the listener,
# its reserve fd and worker 0's wakeup pipe leave 17 of 24 for sessions.
# Each client connects at once and sends its input a second later, so all
# 30 are connected together. Admitted clients must match tokenize byte
# for byte; the rest must get the retryable out-of-fds Capacity reply
# (EMFILE at accept), and the daemon must stay up and serve afterwards.
tmpd=$(mktemp -d)
sock="$tmpd/st.sock"
(ulimit -n 24 && exec "$BIN" serve --socket "$sock" --idle-timeout 30) \
  > "$tmpd/serve.log" 2>&1 &
srv=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "fd-bound check FAILED: daemon did not come up"
    cat "$tmpd/serve.log"
    rm -rf "$tmpd"
    exit 1
  fi
  sleep 0.1
done
"$BIN" gen json --bytes 50000 --seed 9 > "$tmpd/in.json"
"$BIN" tokenize json "$tmpd/in.json" > "$tmpd/ref.out"
pids=""
for n in $(seq 1 30); do
  (sleep 1 && cat "$tmpd/in.json") \
    | "$BIN" client --socket "$sock" json > "$tmpd/out.$n" 2> "$tmpd/err.$n" &
  pids="$pids $!"
done
for job in $pids; do
  wait "$job" || true
done
admitted=0
refused=0
for n in $(seq 1 30); do
  if cmp -s "$tmpd/ref.out" "$tmpd/out.$n"; then
    admitted=$((admitted + 1))
  elif grep -q 'out of fds.*(retryable)' "$tmpd/err.$n"; then
    refused=$((refused + 1))
  else
    echo "fd-bound check FAILED: client $n: no tokenize match, no refusal"
    cat "$tmpd/err.$n"
    rm -rf "$tmpd"
    exit 1
  fi
done
echo "admitted $admitted, refused $refused"
if [ "$admitted" -eq 0 ] || [ "$refused" -eq 0 ]; then
  echo "fd-bound check FAILED: expected both admitted and refused clients"
  rm -rf "$tmpd"
  exit 1
fi
if ! kill -0 "$srv" 2> /dev/null; then
  echo "fd-bound check FAILED: daemon died at its fd limit"
  cat "$tmpd/serve.log"
  rm -rf "$tmpd"
  exit 1
fi
# the reserve fd is back: a client after the burst is served
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/after.out"
if ! cmp -s "$tmpd/ref.out" "$tmpd/after.out"; then
  echo "fd-bound check FAILED: client after the burst differs from tokenize"
  rm -rf "$tmpd"
  exit 1
fi
kill -TERM "$srv"
if ! wait "$srv"; then
  echo "fd-bound check FAILED: daemon did not exit 0 on SIGTERM"
  rm -rf "$tmpd"
  exit 1
fi
rm -rf "$tmpd"

echo "== shard check (--domains 2: parity, pool stats, client abort, SIGTERM drain)"
# The sharded daemon must be indistinguishable from --domains 1 on the
# wire: same client output bytes (checked against batch tokenize, which
# the single-domain leg above also matched), one engine compile pool-wide
# through the shared cache, and the same abort/drain behavior — a killed
# client takes down neither its worker domain nor worker 0 and its listener.
tmpd=$(mktemp -d)
sock="$tmpd/st.sock"
"$BIN" serve --socket "$sock" --domains 2 --idle-timeout 30 \
  > "$tmpd/serve.log" 2>&1 &
srv=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "shard check FAILED: sharded daemon did not come up"
    cat "$tmpd/serve.log"
    rm -rf "$tmpd"
    exit 1
  fi
  sleep 0.1
done
if ! grep -q "2 domains" "$tmpd/serve.log"; then
  echo "shard check FAILED: daemon did not report 2 domains"
  cat "$tmpd/serve.log"
  rm -rf "$tmpd"
  exit 1
fi

"$BIN" gen json --bytes 200000 --seed 9 > "$tmpd/in.json"
"$BIN" tokenize json "$tmpd/in.json" > "$tmpd/ref.out"

# 4 concurrent sessions land 2 on each worker domain (round-robin)
for n in 1 2 3 4; do
  "$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.$n" &
  eval "c$n=\$!"
done
clients_failed=0
for job in "$c1" "$c2" "$c3" "$c4"; do
  wait "$job" || clients_failed=1
done
if [ "$clients_failed" -ne 0 ]; then
  echo "shard check FAILED: a client exited non-zero"
  rm -rf "$tmpd"
  exit 1
fi
for n in 1 2 3 4; do
  if ! cmp -s "$tmpd/ref.out" "$tmpd/out.$n"; then
    echo "shard check FAILED: client $n output differs from tokenize"
    rm -rf "$tmpd"
    exit 1
  fi
done

# kill -9 a mid-stream client: the owning worker domain must survive
fifo="$tmpd/fifo"
mkfifo "$fifo"
"$BIN" client --socket "$sock" json < "$fifo" > /dev/null 2>&1 &
cpid=$!
exec 9> "$fifo"
head -c 1000 "$tmpd/in.json" >&9
sleep 0.3
kill -9 "$cpid" 2> /dev/null || true
exec 9>&-
wait "$cpid" 2> /dev/null || true
sleep 0.3
if ! kill -0 "$srv" 2> /dev/null; then
  echo "shard check FAILED: sharded daemon died after client abort"
  cat "$tmpd/serve.log"
  rm -rf "$tmpd"
  exit 1
fi

# pool-wide STATS from any worker: 4 same-grammar sessions across both
# workers cost exactly one compile (shared cache), and the vectored
# write path is live (writev consumptions counted)
"$BIN" client --socket "$sock" json "$tmpd/in.json" --stats \
  > /dev/null 2> "$tmpd/stats.json"
if ! grep -q '"name":"engine_cache_compiles","type":"counter","value":1[,}]' \
  "$tmpd/stats.json"; then
  echo "shard check FAILED: expected exactly one compile pool-wide"
  cat "$tmpd/stats.json"
  rm -rf "$tmpd"
  exit 1
fi
if grep -q '"name":"writevs","type":"counter","value":0[,}]' \
  "$tmpd/stats.json"; then
  echo "shard check FAILED: vectored write path never used"
  cat "$tmpd/stats.json"
  rm -rf "$tmpd"
  exit 1
fi

# SIGTERM: stop accepting, drain both workers, exit 0, unlink the socket
kill -TERM "$srv"
if ! wait "$srv"; then
  echo "shard check FAILED: sharded daemon did not exit 0 on SIGTERM"
  rm -rf "$tmpd"
  exit 1
fi
if [ -e "$sock" ]; then
  echo "shard check FAILED: socket file left behind"
  rm -rf "$tmpd"
  exit 1
fi
rm -rf "$tmpd"

echo "== check.sh OK"
