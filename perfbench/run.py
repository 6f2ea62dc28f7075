#!/usr/bin/env python3
"""StreamTok benchmark: one seeded run through the real daemon.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build the daemon and the load generator from source, run one
      workload, append the result to perfbench/history.jsonl and print the
      result object as the last line of stdout.  --trace 0 reports the
      end-to-end metrics, --trace 1 the per-layer metrics.

  python3 perfbench/run.py all [--seed N] [--seconds S]
      Every workload, untraced and traced; prints every metric with its unit.

  python3 perfbench/run.py spread --workload W [--seeds 10] [--seconds S]
      Ten untraced runs on ten seeds; prints each end-to-end metric's
      median, quartiles and quartile spread against its bound.

  python3 perfbench/run.py compare BASE HEAD [--history FILE]
      Median and quartiles of every metric for two sets of runs in the
      history and a flag on every end-to-end metric that moved past its
      bound. BASE and HEAD are prefixes of a source digest, or of a git rev
      whose tree had no uncommitted changes when it ran.

The program is built from the checkout's lib/ and bin/ in a workspace of
its own, .bench_build/, next to this directory's sources (bench.dune is
their dune file there), so the repository's own dune build never compiles
the benchmark.

  python3 perfbench/run.py selftest
      Determinism (same seed, same input digest; different seed, different
      digest) and parity (a corrupted reference must make runs fail).

  python3 perfbench/run.py map
      The metric map (perfbench/metrics.json): each metric's layer, unit,
      the call it times and the end-to-end metric it should move.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCH_REL = os.path.relpath(BENCH_DIR, ROOT)
OUT_DIR = os.path.join(BENCH_REL, "out")
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DAEMON = os.path.join(".bench_build", "_build", "default", "bin", "streamtok_cli.exe")
LOADGEN = os.path.join(".bench_build", "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["json-te", "csv-k1", "bpe-ids", "grammar-churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def metric_map():
    """perfbench/metrics.json, checked to cover BENCHMARK.json exactly."""
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        m = json.load(f)
    s = spec()
    want = {x["name"]: x["unit"] for x in s["end_to_end"] + s["per_layer"]}
    got = {k: v["unit"] for k, v in m["metrics"].items()}
    if want != got or set(m["workloads"]) != {w["name"] for w in s["workloads"]}:
        die("perfbench/metrics.json does not match BENCHMARK.json")
    return m


def env():
    e = dict(os.environ)
    # keep every build artefact inside the checkout
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "_build", ".cache")
    return e


def sources():
    """Workspace path -> checkout path of every file the build needs."""
    for need in ("dune-project", "streamtok.opam", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no StreamTok source tree here (missing %s)" % need)
    files = {name: os.path.join(ROOT, name) for name in ("dune-project", "streamtok.opam")}
    for top in ("lib", "bin"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                path = os.path.join(dirpath, name)
                files[os.path.relpath(path, ROOT)] = path
    for name in os.listdir(BENCH_DIR):
        if name.endswith((".ml", ".mli", ".c")):
            files[os.path.join("perfbench", name)] = os.path.join(BENCH_DIR, name)
    files[os.path.join("perfbench", "dune")] = os.path.join(BENCH_DIR, "bench.dune")
    return files


def mirror(files):
    """Bring .bench_build up to date with [files], writing only files whose
    bytes changed (so dune rebuilds incrementally) and removing the rest."""
    for rel, src in files.items():
        dst = os.path.join(BUILD_DIR, rel)
        with open(src, "rb") as f:
            data = f.read()
        try:
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    for top in ("lib", "bin", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(BUILD_DIR, top)):
            for name in names:
                path = os.path.join(dirpath, name)
                if os.path.relpath(path, BUILD_DIR) not in files:
                    os.remove(path)


def build():
    mirror(sources())
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./bin/streamtok_cli.exe", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=BUILD_DIR, env=env(), timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed", 1)


def loadgen(args, timeout=RUN_TIMEOUT_S):
    """Run the load generator; returns (exit code, stdout)."""
    cmd = [os.path.join(ROOT, LOADGEN), "--daemon", DAEMON, "--out", OUT_DIR] + args
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    p = subprocess.Popen(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        die("run exceeded %d s" % timeout, 1)
    return p.returncode, out


def source_digest():
    h = hashlib.sha1()
    for rel, path in sorted(sources().items()):
        with open(path, "rb") as f:
            h.update(rel.encode() + b"\0" + f.read())
    return h.hexdigest()[:12]


def git(*args):
    try:
        r = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def context(ns):
    """The run's context. A run is keyed by its git rev; when the tree has
    uncommitted changes the rev gets the source digest appended, so runs of
    a change and of its parent never share a key."""
    src = source_digest()
    rev = git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = rev is None or bool(git("status", "--porcelain", "--untracked-files=no"))
    if rev is None:
        rev = "src-" + src
    elif dirty:
        rev = rev + "+" + src
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:
        ocaml = ""
    if not ocaml:
        try:
            ocaml = subprocess.run(["ocaml", "-version"], capture_output=True,
                                   text=True).stdout.strip().split()[-1]
        except (FileNotFoundError, IndexError):
            ocaml = "unknown"
    return {
        "rev": rev,
        "dirty": dirty,
        "source": src,
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "nproc": os.cpu_count(),
        "ocaml": ocaml,
        "host": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_metrics(result, trace):
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        die("metric set differs from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))), 1)


def cmd_map(argv):
    m = metric_map()
    for w, why in m["workloads"].items():
        print("workload %s: %s" % (w, why))
    for name, e in m["metrics"].items():
        moves = ", ".join("%s on %s" % (x["metric"], x["workload"]) for x in e["moves"])
        print("%-34s %-6s %-14s %s%s" % (name, e["unit"], e["layer"], e["times"],
                                          "  -> " + moves if moves else ""))


def run_one(ns):
    code, out = loadgen(["--workload", ns.workload, "--seed", str(ns.seed),
                         "--seconds", str(ns.seconds), "--trace", str(ns.trace)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        die("load generator failed (exit %d)" % code, 1)
    result = json.loads(lines[-1])
    check_metrics(result, ns.trace)
    ctx = context(ns)
    print("perfbench: context " + json.dumps(ctx, sort_keys=True), file=sys.stderr)
    with open(HISTORY, "a") as f:
        f.write(json.dumps(dict(ctx, result=result), sort_keys=True) + "\n")
    return result


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    build()
    result = run_one(ns)
    print(json.dumps(result))


def cmd_all(argv):
    ap = argparse.ArgumentParser(prog="run.py all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ns = ap.parse_args(argv)
    build()
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_one(argparse.Namespace(workload=w, seed=ns.seed,
                                           seconds=ns.seconds, trace=trace))
            ok = ok and r["correct"]
            print("%s trace=%d correct=%s attempted=%d failed=%d" % (
                w, trace, r["correct"], r["attempted"], r["failed"]))
            for name, m in r["metrics"].items():
                print("  %-34s %14.4f %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def cmd_spread(argv):
    ap = argparse.ArgumentParser(prog="run.py spread")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ns = ap.parse_args(argv)
    build()
    vals = {}
    for seed in range(ns.first_seed, ns.first_seed + ns.seeds):
        r = run_one(argparse.Namespace(workload=ns.workload, seed=seed,
                                       seconds=ns.seconds, trace=0))
        for k, m in r["metrics"].items():
            vals.setdefault(k, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    for k, xs in vals.items():
        q1, q2, q3 = quartiles(xs)
        sp = (q3 - q1) / q2 if q2 else float("inf")
        flag = "" if sp <= bounds[k] / 3 else ("  > bound/3" if sp <= bounds[k] else "  > BOUND")
        print("%-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f  bound %.2f%s"
              % (k, q2, q1, q3, sp, bounds[k], flag))


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("base", help="source digest or clean rev (prefix) of the baseline runs")
    ap.add_argument("head", help="source digest or clean rev (prefix) of the runs to judge")
    ap.add_argument("--history", default=HISTORY)
    ns = ap.parse_args(argv)
    sides = {"base": {}, "head": {}}
    with open(ns.history) as f:
        for line in f:
            rec = json.loads(line)
            for side, prefix in (("base", ns.base), ("head", ns.head)):
                if rec["source"].startswith(prefix) or (
                        not rec.get("dirty", True) and rec["rev"].startswith(prefix)):
                    for k, m in rec["result"]["metrics"].items():
                        key = (rec["workload"], k)
                        sides[side].setdefault(key, []).append(m["value"])
    s = spec()
    e2e = {m["name"]: m for m in s["end_to_end"]}
    regressed = False
    for key in sorted(set(sides["base"]) & set(sides["head"])):
        b, h = sides["base"][key], sides["head"][key]
        bq, hq = quartiles(b), quartiles(h)
        flag = ""
        if key[1] in e2e:
            m = e2e[key[1]]
            worse = (hq[1] - bq[1]) / bq[1] if m["better"] == "lower" else (bq[1] - hq[1]) / bq[1]
            if worse > m["bound"]:
                flag, regressed = "  REGRESSED past bound %.2f" % m["bound"], True
            elif -worse > m["bound"]:
                flag = "  improved past bound %.2f" % m["bound"]
        print("%-14s %-34s base %11.4f [%11.4f, %11.4f] n=%-2d head %11.4f [%11.4f, %11.4f] n=%-2d%s"
              % (key[0], key[1], bq[1], bq[0], bq[2], len(b), hq[1], hq[0], hq[2], len(h), flag))
    sys.exit(1 if regressed else 0)


def cmd_selftest(argv):
    build()
    metric_map()
    ok = True
    for w in WORKLOADS:
        digests = [loadgen(["--workload", w, "--seed", str(s), "--digest"])[1].strip()
                   for s in (1, 1, 2)]
        good = digests[0] == digests[1] and digests[0] != digests[2]
        ok = ok and good
        print("determinism %-14s %s %s" % (w, digests, "ok" if good else "FAIL"))
    code, out = loadgen(["--workload", "json-te", "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--corrupt-reference"])
    r = json.loads(out.strip().splitlines()[-1])
    fail_pct = 100.0 * r["failed"] / r["attempted"]
    good = code == 0 and fail_pct > 0 and not r["correct"]
    ok = ok and good
    print("corrupted reference: fail_pct %.2f%% correct=%s %s"
          % (fail_pct, r["correct"], "ok" if good else "FAIL"))
    sys.exit(0 if ok else 1)


def main():
    argv = sys.argv[1:]
    sub = {"all": cmd_all, "spread": cmd_spread, "compare": cmd_compare,
           "selftest": cmd_selftest, "map": cmd_map}
    if argv and argv[0] in sub:
        sub[argv[0]](argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
