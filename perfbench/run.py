#!/usr/bin/env python3
"""Job-level benchmark of the simulator service (see README.md here).

One run, as BENCHMARK.json's command gives it (from the repository root):

    python3 perfbench/run.py --workload pws-sweep --seed 1 --seconds 30 --trace 0

builds the benchmark from source into .bench_build/, runs it, and prints the
result JSON as the last stdout line.  Exit code 0 means every job's output
matched its golden; 1 means a job failed or a check did not hold (the JSON
then says "correct": false); 2 means the benchmark could not run at all.

Helpers, all from the repository root:

    run.py series --out FILE [--runs 10] [--seed0 1] [--workloads a,b] [--trace 0]
        runs every workload --runs times with seeds seed0, seed0+1, ... and
        appends one JSON line per run to FILE (a "set of runs").
    run.py spread FILE
        per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the metric's bound.
    run.py compare PARENT CHANGE
        per (end-to-end metric, workload): better / worse / unresolved by the
        paired rule in README.md, with each side's median and quartiles.
    run.py goldens
        regenerates goldens/*.txt from the current source.
    run.py selftest
        shows the golden check fails closed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "ro_perfbench"
WORKLOADS = ["pws-sweep", "serve-mix", "stream-batch"]
SETUP_REPEATS = 5  # setup_s is the median over this many fresh processes
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False on any failure."""
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def invoke(args, timeout):
    """Runs the benchmark binary from the repository root."""
    return subprocess.run([str(BINARY)] + args, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def one_run(workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, result dict or None)."""
    t0 = time.monotonic()
    setups = []
    if trace == 0:
        for _ in range(SETUP_REPEATS - 1):
            p = invoke(["--workload", workload, "--setup-only"], 60)
            if p.returncode != 0:
                return 2, None
            setups.append(last_json(p.stdout)["setup_s"])
    left = RUN_TIMEOUT_S - (time.monotonic() - t0)
    p = invoke(["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)], left)
    try:
        result = last_json(p.stdout)
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return 2, None
    if trace == 0:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    return p.returncode, result


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not build():
        log("build failed")
        return 2
    try:
        code, result = one_run(a.workload, a.seed, a.seconds, a.trace)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 2
    if result is None:
        log("the benchmark printed no result")
        return 2
    print(json.dumps(result))
    return code


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def cmd_series(argv):
    ap = argparse.ArgumentParser(prog="run.py series")
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not build():
        return 2
    seconds = bench_spec()["run_seconds"]
    status = 0
    with open(a.out, "a") as out:
        for i in range(a.runs):
            for w in a.workloads.split(","):
                seed = a.seed0 + i
                code, result = one_run(w, seed, seconds, a.trace)
                row = {"workload": w, "seed": seed, "trace": a.trace,
                       "exit": code, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                log(f"{w} seed {seed}: exit {code}")
                status = status or code
    return status


def load_runs(path):
    """{workload: [metrics dict, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("exit") != 0 or not row.get("result"):
                raise SystemExit(f"{path}: a failed run ({row['workload']} "
                                 f"seed {row['seed']}); rerun it")
            runs.setdefault(row["workload"], []).append(
                {k: v["value"] for k, v in row["result"]["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(argv):
    ap = argparse.ArgumentParser(prog="run.py spread")
    ap.add_argument("file")
    a = ap.parse_args(argv)
    runs = load_runs(a.file)
    ok = True
    print(f"{'workload':14} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, rows in runs.items():
        for m in bench_spec()["end_to_end"]:
            vals = [r[m["name"]] for r in rows]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = " > bound/3"
                ok = ok and spread <= m["bound"]
            print(f"{w:14} {m['name']:18} {len(vals):3} {q2:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6}{flag}")
    return 0 if ok else 1


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent")
    ap.add_argument("change")
    a = ap.parse_args(argv)
    parent, change = load_runs(a.parent), load_runs(a.change)
    print(f"{'workload':14} {'metric':18} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>7} {'verdict':>11} bound")
    for w in parent:
        if w not in change:
            continue
        for m in bench_spec()["end_to_end"]:
            pv = [r[m["name"]] for r in parent[w]]
            cv = [r[m["name"]] for r in change[w]]
            pairs = list(zip(pv, cv))
            lower = m["better"] == "lower"
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            losses = sum(1 for p, c in pairs if (c > p if lower else c < p))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            gap = abs(cm - pm)
            verdict = "unresolved"
            if gap > p3 - p1:
                if wins >= 0.9 * len(pairs) and (cm < pm) == lower:
                    verdict = "better"
                elif losses >= 0.9 * len(pairs) and (cm > pm) == lower:
                    verdict = "worse"
            worse_by = (cm - pm) / pm if pm else 0.0
            if not lower:
                worse_by = -worse_by
            within = "ok" if worse_by <= m["bound"] else "EXCEEDED"
            print(f"{w:14} {m['name']:18} "
                  f"{pm:12.6g} [{p1:10.6g}, {p3:10.6g}] "
                  f"{cm:12.6g} [{c1:10.6g}, {c3:10.6g}] "
                  f"{wins:3}/{len(pairs):<3} {verdict:>11} {within}")
    return 0


def cmd_goldens(argv):
    argparse.ArgumentParser(prog="run.py goldens").parse_args(argv)
    if not build():
        return 2
    for w in WORKLOADS:
        path = HERE / "goldens" / f"{w}.txt"
        log(f"writing {path.relative_to(ROOT)}")
        p = subprocess.run([str(BINARY), "--workload", w,
                            "--write-goldens", str(path)], cwd=ROOT)
        if p.returncode != 0:
            return 1
    return 0


def cmd_selftest(argv):
    """Each workload, on a short job list: the real goldens pass; one
    perturbed golden value fails the run; an empty golden file fails it;
    an empty job list fails it."""
    argparse.ArgumentParser(prog="run.py selftest").parse_args(argv)
    if not build():
        return 2
    work = ROOT / ".bench_build" / "selftest"
    jobs = {"pws-sweep": 6, "serve-mix": 20, "stream-batch": 4}
    failures = 0

    def attempt(w, goldens_dir, n):
        p = subprocess.run(
            [str(BINARY), "--workload", w, "--seed", "1", "--seconds", "60",
             "--trace", "0", "--jobs", str(n), "--goldens", str(goldens_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S)
        return p.returncode, p.stderr

    def expect(name, code, want_ok):
        nonlocal failures
        good = (code == 0) == want_ok
        failures += not good
        log(f"{'ok  ' if good else 'FAIL'} {name}: exit {code}")

    for w, n in jobs.items():
        real = HERE / "goldens" / f"{w}.txt"
        lines = real.read_text().splitlines()
        code, _ = attempt(w, HERE / "goldens", n)
        expect(f"{w}: real goldens pass", code, True)

        # Find a golden this job list checks: perturb every line's last
        # value, see which keys fail, then perturb only the first of them.
        def write(tweak):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            out = [tweak(ln) if ln and not ln.startswith("#") else ln
                   for ln in lines]
            (work / f"{w}.txt").write_text("\n".join(out) + "\n")

        def bump(ln):
            head, _, last = ln.rpartition(" ")
            return f"{head} {int(last) + 1}" if last.isdigit() else ln

        write(bump)
        code, err = attempt(w, work, n)
        expect(f"{w}: every golden perturbed fails", code, False)
        keys = [ln.split()[2].rstrip(":") for ln in err.splitlines()
                if ln.startswith("perfbench: FAIL ")]
        if keys:
            write(lambda ln: bump(ln) if ln.split()[0] == keys[0] else ln)
            code, err = attempt(w, work, n)
            expect(f"{w}: one golden value perturbed ({keys[0]}) fails",
                   code, False)
        else:
            expect(f"{w}: a job named by a golden failure", 0, False)

        (work / f"{w}.txt").write_text("")
        code, _ = attempt(w, work, n)
        expect(f"{w}: empty golden file fails", code, False)

        code, _ = attempt(w, HERE / "goldens", 0)
        expect(f"{w}: empty job list fails", code, False)
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


def main():
    commands = {"series": cmd_series, "spread": cmd_spread,
                "compare": cmd_compare, "goldens": cmd_goldens,
                "selftest": cmd_selftest}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        return commands[sys.argv[1]](sys.argv[2:])
    return cmd_run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
