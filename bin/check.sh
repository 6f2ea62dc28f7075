#!/bin/sh
# Tier-1 gate (see ROADMAP.md): full build, the whole test suite, the
# ~3 s observability smoke check — instrumented-runner and tracer parity
# plus their overhead budgets (target <=2%, hard gate 10% to absorb CI
# timing noise; the recording tracer <=15%) and serve-span attribution —
# and the differential-fuzzing smoke gate: a seeded `streamtok fuzz --smoke`
# must find zero mismatches, and an artificially injected engine bug must be
# caught and shrunk to a <=64-byte repro (the find->shrink->repro pipeline
# proves itself on every run).
set -e
cd "$(dirname "$0")/.."

# fail MESSAGE [FILE]: print MESSAGE (and FILE), remove the leg's scratch
# directory $tmpd, exit 1.
fail() {
  echo "$1"
  if [ -n "${2:-}" ]; then cat "$2"; fi
  if [ -n "${tmpd:-}" ]; then rm -rf "$tmpd"; fi
  exit 1
}

# start_daemon MESSAGE CMD...: run the daemon CMD in the background,
# logging to $tmpd/serve.log, with its pid in $srv; fail with MESSAGE
# unless it listens on $sock within 10 s.
start_daemon() {
  msg=$1
  shift
  "$@" > "$tmpd/serve.log" 2>&1 &
  srv=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      fail "$msg" "$tmpd/serve.log"
    fi
    sleep 0.1
  done
}

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== bench smoke (instrumented/tracer parity + overhead, stream/batch floor, minor words/byte, compile words/transition, serve-span attribution >=90% + loopback token parity)"
# Hard checks live inside the bench: instrumented and disabled-tracer
# token-stream parity with their overhead gates, the slice-API streaming
# floor against batch, at most 0.1 minor-heap words per input byte on the
# batch engine, the 1 KiB slice stream, a 1 KiB-FEED serve session and
# 1 KiB FEED frames served through the loopback transport with replies
# read by Wire.read_replies (json and csv), at most 60% of the earlier
# build's words allocated per DFA transition by Engine.compile_rules on
# [xy]*x[xy]{10} and two BPE vocabularies, token-count parity with the
# tracer recording, the
# enabled-tracer overhead gate on the chunked words workload, and >=90%
# of a traced loopback serve run's wall time attributed by the span-tree
# report, with its served token count equal to a direct engine run's.
dune exec bench/main.exe -- smoke

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

echo "== bpe gate (vendored-vocab drift, audit, parity vs merge loop, bounded K, TE bytes and words per powerstate)"
# Hard checks live inside the bench: the vendored vocabulary must equal
# Trainer.mini (), pass the munch-consistency audit, and the DFA engine's
# token ids must equal the reference merge-loop encoder on every parity
# input, batch and chunked. A cold 4 KiB corpus run must hold the TE DFA
# to at most 3 KiB of allocated bytes per materialized powerstate, and
# allocate at most 60 % of the words per powerstate of the boxed layout
# (counts, not timings). Throughput timing is skipped here.
dune exec bench/main.exe -- bpe-check

echo "== perfbench selftest (the frozen benchmark still builds and runs)"
# `dune runtest` never compiles perfbench/ (run.py builds it in its own
# .bench_build/ workspace from copies of lib/ and bin/), so a lib/ API
# change could break the benchmark unnoticed. The selftest builds it,
# checks each workload's input is deterministic per seed, and checks that
# a corrupted reference makes runs fail.
python3 perfbench/run.py selftest

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
  fail "fuzz self-test FAILED: injected bug not caught"
fi
for f in "$tmpd"/*.repro; do
  hex=$(grep 'input-hex:' "$f" | awk '{print $2}')
  if [ "${#hex}" -gt 128 ]; then
    fail "fuzz self-test FAILED: repro not shrunk to <=64 bytes: $f"
  fi
done
rm -rf "$tmpd"

echo "== serve smoke (daemon parity, zero-copy decode, small writes, streaming client, slow reader, engine cache, client abort, over-cap OPEN, unbounded-max-TND OPEN, SIGTERM drain)"
# Use the installed binary directly: the daemon and clients run
# concurrently, and parallel `dune exec` invocations would fight over the
# build lock.
BIN=_build/install/default/bin/streamtok
tmpd=$(mktemp -d)
sock="$tmpd/st.sock"
start_daemon "serve smoke FAILED: daemon did not come up" \
  "$BIN" serve --socket "$sock" --idle-timeout 30

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
  fail "serve smoke FAILED: decoder copied bytes on a straddle-free run" "$tmpd/stats0.json"
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
  fail "serve smoke FAILED: a client exited non-zero"
fi
for n in 1 2 3; do
  if ! cmp -s "$tmpd/ref.out" "$tmpd/out.$n"; then
    fail "serve smoke FAILED: client $n output differs from tokenize"
  fi
done

# small writes: awk hands the client its stdin a line at a time, so it
# frames many small FEEDs and the daemon decodes many of them per read,
# feeding each one as it is decoded; the output must still equal tokenize
awk '{print}' "$tmpd/in.json" > "$tmpd/lines.json"
"$BIN" tokenize json "$tmpd/lines.json" > "$tmpd/lines.ref"
awk '{print; fflush()}' "$tmpd/lines.json" \
  | "$BIN" client --socket "$sock" json > "$tmpd/lines.out"
if ! cmp -s "$tmpd/lines.ref" "$tmpd/lines.out"; then
  fail "serve smoke FAILED: line-at-a-time client output differs from tokenize"
fi

# streaming client: the second line arrives 2 s after the first, and the
# first line's tokens must be on stdout before it does; the whole output
# must still equal tokenize
(printf '[1, 2]\n'; sleep 2; printf '[3]\n') \
  | "$BIN" client --socket "$sock" json > "$tmpd/stream.out" &
cpid=$!
sleep 1
if ! grep -q '^lbracket' "$tmpd/stream.out"; then
  fail "serve smoke FAILED: client printed nothing before its input paused"
fi
wait "$cpid" || fail "serve smoke FAILED: streaming client exited non-zero"
printf '[1, 2]\n[3]\n' | "$BIN" tokenize json > "$tmpd/stream.ref"
if ! cmp -s "$tmpd/stream.ref" "$tmpd/stream.out"; then
  fail "serve smoke FAILED: streaming client output differs from tokenize"
fi

# slow reader: nobody reads the client's stdout for a second, so the
# client stops draining its socket, the replies to 2 MB of json overflow
# the socket buffer, and the daemon must resume from partial writes of
# its out queue without losing or reordering a byte
"$BIN" gen json --bytes 2000000 --seed 11 > "$tmpd/big.json"
"$BIN" tokenize json "$tmpd/big.json" > "$tmpd/big.ref"
"$BIN" client --socket "$sock" json "$tmpd/big.json" \
  | (sleep 1; cat) > "$tmpd/big.out"
if ! cmp -s "$tmpd/big.ref" "$tmpd/big.out"; then
  fail "serve smoke FAILED: slow-reader client output differs from tokenize"
fi

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
  fail "serve smoke FAILED: daemon died after client abort"
fi

# one STATS probe: the aborted session must be evicted (only the probe's
# own session is live) and N same-grammar sessions must have cost exactly
# one engine compile
"$BIN" client --socket "$sock" json "$tmpd/in.json" --stats \
  > /dev/null 2> "$tmpd/stats.json"
if ! grep -q '"name":"engine_cache_compiles","type":"counter","value":1[,}]' \
  "$tmpd/stats.json"; then
  fail "serve smoke FAILED: expected exactly one engine compile" "$tmpd/stats.json"
fi
if ! grep -q '"name":"sessions","type":"gauge","value":1[,}]' \
  "$tmpd/stats.json"; then
  fail "serve smoke FAILED: aborted session not evicted" "$tmpd/stats.json"
fi

# BPE token-id session: OPEN_BPE + IDS frames through the daemon must
# equal the local engine's `tokenize --ids` on the same input. (After the
# cache probe: the BPE engine is a second cache entry.)
"$BIN" tokenize bpe:test/vocab/mini.tiktoken "$tmpd/small.json" --ids \
  > "$tmpd/ids.ref"
"$BIN" client --socket "$sock" bpe:test/vocab/mini.tiktoken \
  "$tmpd/small.json" --ids > "$tmpd/ids.out"
if ! cmp -s "$tmpd/ids.ref" "$tmpd/ids.out"; then
  fail "serve smoke FAILED: BPE ids over the wire differ from tokenize --ids"
fi

# over-cap inline grammar: every OPEN compiles under the subset-
# construction cap, so a 22-byte grammar with a 2^17-state DFA is a
# bad-grammar refusal (client exits non-zero), the daemon stays up, and
# the next client is still byte-identical to tokenize
if "$BIN" client --socket "$sock" '@[ab]*a[ab]{16}c' "$tmpd/small.json" \
  > /dev/null 2> "$tmpd/cap.err"; then
  fail "serve smoke FAILED: over-cap grammar OPEN was accepted"
fi
if ! grep -q "exceeded 65536 states (max_states cap)" "$tmpd/cap.err"; then
  fail "serve smoke FAILED: over-cap OPEN did not name the state cap" "$tmpd/cap.err"
fi
if ! kill -0 "$srv" 2> /dev/null; then
  fail "serve smoke FAILED: daemon died after an over-cap OPEN"
fi
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.cap"
if ! cmp -s "$tmpd/ref.out" "$tmpd/out.cap"; then
  fail "serve smoke FAILED: client after an over-cap OPEN differs from tokenize"
fi

# unbounded grammar just under the cap: [xy]*x[xy]{14} has a 32769-state
# DFA, and the max-TND search proves it unbounded in one linear pass, so
# the OPEN is a bad-grammar refusal within 10 s (the Fig. 3 loop took
# about 23 s, holding the pool-wide engine cache the whole time), the
# daemon stays up, and the next client is still byte-identical to tokenize
status=0
timeout 10 "$BIN" client --socket "$sock" '@[xy]*x[xy]{14}' \
  "$tmpd/small.json" > /dev/null 2> "$tmpd/tnd.err" || status=$?
if [ "$status" -eq 0 ]; then
  fail "serve smoke FAILED: unbounded-max-TND grammar OPEN was accepted"
fi
if [ "$status" -eq 124 ]; then
  fail "serve smoke FAILED: unbounded-max-TND OPEN took over 10 s"
fi
if ! grep -q "has unbounded max-TND" "$tmpd/tnd.err"; then
  fail "serve smoke FAILED: OPEN was not refused for unbounded max-TND" "$tmpd/tnd.err"
fi
if ! kill -0 "$srv" 2> /dev/null; then
  fail "serve smoke FAILED: daemon died after an unbounded-max-TND OPEN"
fi
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/out.tnd"
if ! cmp -s "$tmpd/ref.out" "$tmpd/out.tnd"; then
  fail "serve smoke FAILED: client after an unbounded-max-TND OPEN differs from tokenize"
fi

# SIGTERM: drain and exit 0, unlinking the socket
kill -TERM "$srv"
if ! wait "$srv"; then
  fail "serve smoke FAILED: daemon did not exit 0 on SIGTERM"
fi
if [ -e "$sock" ]; then
  fail "serve smoke FAILED: socket file left behind"
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
start_daemon "fd-bound check FAILED: daemon did not come up" \
  sh -c 'ulimit -n 24 && exec "$@"' sh \
  "$BIN" serve --socket "$sock" --idle-timeout 30
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
    fail "fd-bound check FAILED: client $n: no tokenize match, no refusal" "$tmpd/err.$n"
  fi
done
echo "admitted $admitted, refused $refused"
if [ "$admitted" -eq 0 ] || [ "$refused" -eq 0 ]; then
  fail "fd-bound check FAILED: expected both admitted and refused clients"
fi
if ! kill -0 "$srv" 2> /dev/null; then
  fail "fd-bound check FAILED: daemon died at its fd limit" "$tmpd/serve.log"
fi
# the reserve fd is back: a client after the burst is served
"$BIN" client --socket "$sock" json "$tmpd/in.json" > "$tmpd/after.out"
if ! cmp -s "$tmpd/ref.out" "$tmpd/after.out"; then
  fail "fd-bound check FAILED: client after the burst differs from tokenize"
fi
kill -TERM "$srv"
if ! wait "$srv"; then
  fail "fd-bound check FAILED: daemon did not exit 0 on SIGTERM"
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
start_daemon "shard check FAILED: sharded daemon did not come up" \
  "$BIN" serve --socket "$sock" --domains 2 --idle-timeout 30
if ! grep -q "2 domains" "$tmpd/serve.log"; then
  fail "shard check FAILED: daemon did not report 2 domains" "$tmpd/serve.log"
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
  fail "shard check FAILED: a client exited non-zero"
fi
for n in 1 2 3 4; do
  if ! cmp -s "$tmpd/ref.out" "$tmpd/out.$n"; then
    fail "shard check FAILED: client $n output differs from tokenize"
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
  fail "shard check FAILED: sharded daemon died after client abort" "$tmpd/serve.log"
fi

# pool-wide STATS from any worker: 4 same-grammar sessions across both
# workers cost exactly one compile (shared cache), and the vectored
# write path is live (writev consumptions counted)
"$BIN" client --socket "$sock" json "$tmpd/in.json" --stats \
  > /dev/null 2> "$tmpd/stats.json"
if ! grep -q '"name":"engine_cache_compiles","type":"counter","value":1[,}]' \
  "$tmpd/stats.json"; then
  fail "shard check FAILED: expected exactly one compile pool-wide" "$tmpd/stats.json"
fi
if grep -q '"name":"writevs","type":"counter","value":0[,}]' \
  "$tmpd/stats.json"; then
  fail "shard check FAILED: vectored write path never used" "$tmpd/stats.json"
fi

# SIGTERM: stop accepting, drain both workers, exit 0, unlink the socket
kill -TERM "$srv"
if ! wait "$srv"; then
  fail "shard check FAILED: sharded daemon did not exit 0 on SIGTERM"
fi
if [ -e "$sock" ]; then
  fail "shard check FAILED: socket file left behind"
fi
rm -rf "$tmpd"

echo "== check.sh OK"
