#!/usr/bin/env python3
"""End-to-end benchmark of the PolarFly simulator; see README.md.

    python3 bench/e2e/run.py [--build-dir DIR] [--workload NAME] [--seed N]
                             [--seconds S] [--trace 0|1 | --traced] [--out PATH]
    python3 bench/e2e/run.py --selftest [--build-dir DIR]
    python3 bench/e2e/run.py --write-ref [--build-dir DIR]
    python3 bench/e2e/run.py compare A.json B.json

Builds pf_sim and bench_layers from source (Release) into the build
directory, writes each workload's suite from its template with the
traffic seeds filled in, runs it closed loop (one pf_sim at a time) for
--seconds, checks every record against a reference at rtol 0 and prints
each metric with its unit. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("pf47_ugalpf", "q13_sweep", "collectives", "live_faults")
# The seeds of suites/paper_figs.json: config.seed and pattern_seed.
DEFAULT_SEED = 779712
DEFAULT_PATTERN_SEED = 65261
MAX_THREADS = 4


class BenchError(Exception):
    """A failure of the benchmark itself: it prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- building ------------------------------------------------------------


def cache_value(cache, key):
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def run_logged(argv, log_path, env):
    with open(log_path, "a") as out:
        done = subprocess.run([str(a) for a in argv], stdout=out,
                              stderr=subprocess.STDOUT, env=env)
    if done.returncode != 0:
        tail = "\n".join(log_path.read_text().splitlines()[-30:])
        raise BenchError(f"{' '.join(map(str, argv))} failed:\n{tail}")


class Tools:
    """The built binaries plus the environment every child runs in."""

    def __init__(self, build_dir):
        self.build_dir = build_dir
        self.work = build_dir / "bench_e2e"
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = min(MAX_THREADS, self.nproc)
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Compilers put temporaries under TMPDIR: keep them in the checkout.
        self.env = dict(os.environ, PF_THREADS=str(self.threads),
                        TMPDIR=str(tmp))
        self.pf_sim = build_dir / "pf_sim"
        self.layers = self.work / "layers" / "bench_layers"

    def build(self):
        build_log = self.work / "build.log"
        build_log.write_text("")
        cache = self.build_dir / "CMakeCache.txt"
        if not cache.exists():
            log(f"configuring {self.build_dir} (Release)")
            run_logged(["cmake", "-S", ROOT, "-B", self.build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], build_log, self.env)
        build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
        if build_type != "Release":
            raise BenchError(f"{self.build_dir} is a '{build_type}' build; "
                             "the benchmark only times Release builds")
        jobs = str(self.nproc)
        run_logged(["cmake", "--build", self.build_dir, "--target", "pf_sim",
                    "-j", jobs], build_log, self.env)
        layers_dir = self.layers.parent
        if not (layers_dir / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", HERE, "-B", layers_dir,
                        f"-DPF_BUILD_DIR={self.build_dir}",
                        "-DCMAKE_BUILD_TYPE=Release"], build_log, self.env)
        run_logged(["cmake", "--build", layers_dir, "-j", jobs], build_log,
                   self.env)

    def provenance(self):
        def capture(argv):
            done = subprocess.run(argv, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else None

        compiler = cache_value(self.build_dir / "CMakeCache.txt",
                               "CMAKE_CXX_COMPILER")
        version = capture([compiler, "--version"]) if compiler else None
        sha = dirty = None
        # The checkout the benchmark runs in need not be a repository.
        if (ROOT / ".git").exists():
            sha = capture(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
            status = capture(["git", "-C", str(ROOT), "status", "--porcelain",
                              "--untracked-files=no"])
            dirty = None if status is None else bool(status)
        return {"git_sha": sha, "git_dirty": dirty,
                "compiler": version.splitlines()[0] if version else compiler,
                "build_type": "Release", "pf_threads": self.threads,
                "nproc": self.nproc, "python": platform.python_version()}


# ---- children --------------------------------------------------------------


def spawn(argv, env, stdout_path, stderr_path):
    """Runs argv to completion: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4's rusage of the child alone.
    """
    files = [(os.POSIX_SPAWN_OPEN, fd, str(path),
              os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
             for fd, path in ((1, stdout_path), (2, stderr_path))]
    start = time.perf_counter()
    pid = os.posix_spawn(str(argv[0]), [str(a) for a in argv], env,
                         file_actions=files)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def stderr_tail(path):
    return "\n".join(Path(path).read_text(errors="replace").splitlines()[-20:])


def traffic_seeds(seed):
    """(config.seed, pattern_seed) for --seed. Topology and flap seeds are
    fixed in the templates; only traffic changes with the seed."""
    if seed == DEFAULT_SEED:
        return DEFAULT_SEED, DEFAULT_PATTERN_SEED
    digest = hashlib.sha256(str(seed).encode()).digest()
    return tuple(1 + int.from_bytes(digest[i:i + 4], "little") % (2**31 - 1)
                 for i in (0, 4))


def write_suite(tools, workload, seed):
    sim_seed, pattern_seed = traffic_seeds(seed)
    text = (HERE / "suites" / f"{workload}.json").read_text()
    text = text.replace("@SIM_SEED@", str(sim_seed))
    text = text.replace("@PATTERN_SEED@", str(pattern_seed))
    path = tools.work / f"{workload}.suite.json"
    path.write_text(text)
    return path


def pf_sim_pass(tools, suite, records):
    err = tools.work / f"{records.stem}.err"
    code, wall, cpu, rss = spawn(
        [tools.pf_sim, "suite", suite, "--quiet", "--json", records],
        tools.env, os.devnull, err)
    if code != 0:
        raise BenchError(f"pf_sim suite exited {code}:\n{stderr_tail(err)}")
    recs = json.loads(records.read_text())["records"]
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "setup_s": sum(r["perf"].get("setup_seconds", 0.0) for r in recs),
            "sim_cycles": sum(r["perf"]["sim_cycles"] for r in recs)}


def bench_layers(tools, argv, name):
    """Runs bench_layers; exit 1 (records differ) still yields its JSON."""
    out = tools.work / f"{name}.out"
    err = tools.work / f"{name}.err"
    code, *_ = spawn([tools.layers] + argv, tools.env, out, err)
    if code not in (0, 1):
        raise BenchError(f"bench_layers {argv[0]} exited {code}:\n"
                         f"{stderr_tail(err)}")
    return json.loads(out.read_text())


def layers_pass(tools, suite, traced, reference=None, records=None):
    argv = ["run", suite] + ([] if traced else ["--plain"])
    if reference is not None:
        argv += ["--reference", reference]
    if records is not None:
        argv += ["--records", records]
    return bench_layers(tools, argv, "layers")


def check(tools, reference, candidate):
    """(cases, failed cases) of candidate against reference at rtol 0."""
    result = bench_layers(tools, ["check", reference, candidate], "check")
    return result["cases"], result["failed"]


def reference(tools, workload, seed, suite):
    """Reference records and the exact routed-hop count for this seed:
    committed for the default seed, else from a traced bench_layers pass."""
    if seed == DEFAULT_SEED:
        hops = json.loads((HERE / "ref" / "hops.json").read_text())
        return HERE / "ref" / f"{workload}.json", hops[workload]
    records = tools.work / f"{workload}.ref.json"
    return records, layers_pass(tools, suite, True,
                                records=records)["sim.routing.hops"]


# ---- measuring -------------------------------------------------------------


def measure_e2e(tools, workload, seed, seconds):
    suite = write_suite(tools, workload, seed)
    ref, hops = reference(tools, workload, seed, suite)
    passes = []
    start = time.perf_counter()
    # Closed loop: the next pass starts when the previous one has exited,
    # and none starts that would end past the budget (the first always runs).
    while not passes or (time.perf_counter() - start
                         + passes[-1]["wall_s"] <= seconds):
        records = tools.work / f"{workload}.pass{len(passes)}.json"
        passes.append(dict(pf_sim_pass(tools, suite, records),
                           records=records))
    attempted = failed = 0
    for p in passes:
        cases, bad = check(tools, ref, p["records"])
        attempted += cases
        failed += bad
        p["sim_cycles_per_s"] = p["sim_cycles"] / p["wall_s"]
        p["pkt_hops_per_s"] = hops / p["wall_s"]
    names = ("wall_s", "cpu_s", "setup_s", "sim_cycles_per_s",
             "pkt_hops_per_s", "peak_rss_mb")
    samples = {name: [p[name] for p in passes] for name in names}
    metrics = {name: median(values) for name, values in samples.items()}
    extra = {"fail_frac": failed / attempted, "passes": len(passes),
             "pkt_hops": hops, "sim_cycles": passes[0]["sim_cycles"],
             "samples": samples}
    return attempted, failed, metrics, extra


def measure_layers(tools, workload, seed, seconds):
    suite = write_suite(tools, workload, seed)
    untraced = tools.work / f"{workload}.untraced.json"
    pf_sim_pass(tools, suite, untraced)
    attempted = failed = 0
    if seed == DEFAULT_SEED:
        cases, bad = check(tools, HERE / "ref" / f"{workload}.json", untraced)
        attempted += cases
        failed += bad
    runs = {False: [], True: []}
    start = time.perf_counter()
    pair_s = 0.0
    # Plain and traced passes alternate, and which goes first alternates
    # too, so slow drift in the machine cancels out of trace.overhead_frac.
    while not runs[True] or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        order = (False, True) if len(runs[True]) % 2 == 0 else (True, False)
        for traced in order:
            result = layers_pass(tools, suite, traced, reference=untraced)
            attempted += result["cases"]
            failed += result["failed"]
            runs[traced].append(result)
        pair_s = time.perf_counter() - pair_start
    metrics = {name: median([r[name] for r in runs[True]])
               for name in runs[True][0]
               if name not in ("cases", "failed")}
    metrics["trace.overhead_frac"] = (
        median([r["exp.engine.sweep_s"] for r in runs[True]]) /
        median([r["exp.engine.sweep_s"] for r in runs[False]]) - 1.0)
    extra = {"fail_frac": failed / attempted, "passes": len(runs[True])}
    return attempted, failed, metrics, extra


def result_line(attempted, failed, values, declared):
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_metrics(workload, seed, values, extra, declared, attempted, failed):
    sim_seed, pattern_seed = traffic_seeds(seed)
    print(f"== {workload}: seed {seed} (config.seed {sim_seed}, "
          f"pattern_seed {pattern_seed}), {extra['passes']} pass(es)")
    for spec in declared:
        print(f"  {spec['name']:<28} {values[spec['name']]:>14.6g} "
              f"{spec['unit']}")
    for name, value in extra["undeclared"].items():
        print(f"  {name:<28} {value:>14.6g}")
    print(f"  {'fail_frac':<28} {extra['fail_frac']:>14.6g} "
          f"({failed}/{attempted} cases)")


def append_out(path, run):
    path = Path(path)
    doc = {"schema": "polarfly-bench-e2e/1", "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def measure(args, spec, tools):
    trace = 1 if args.traced else args.trace
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    prov = tools.provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    run = {"provenance": prov, "seed": args.seed, "seconds": args.seconds,
           "trace": trace, "workloads": {}}
    names = {m["name"] for m in declared}
    measure_fn = measure_layers if trace else measure_e2e
    lines = []
    for workload in workloads:
        attempted, failed, values, extra = measure_fn(
            tools, workload, args.seed, args.seconds)
        # Layers a workload may never enter (degraded routing, traffic
        # draws, resets) are declared as shares; their absolute values are
        # still printed and kept in --out.
        extra["undeclared"] = {name: value for name, value in values.items()
                               if name not in names}
        print_metrics(workload, args.seed, values, extra, declared,
                      attempted, failed)
        line = result_line(attempted, failed, values, declared)
        run["workloads"][workload] = dict(line, extra=extra)
        lines.append((workload, line))
    if args.out:
        append_out(args.out, run)
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {"correct": all(l["correct"] for _, l in lines),
                 "attempted": sum(l["attempted"] for _, l in lines),
                 "failed": sum(l["failed"] for _, l in lines),
                 "metrics": {f"{w}.{name}": m for w, l in lines
                             for name, m in l["metrics"].items()}}
    print(json.dumps(final))
    return 0


# ---- maintenance -----------------------------------------------------------


def selftest(tools):
    """The reference check must flag a one-ulp change, like CI's canaries."""
    workload = "pf47_ugalpf"
    suite = write_suite(tools, workload, DEFAULT_SEED)
    ref = HERE / "ref" / f"{workload}.json"
    candidate = tools.work / "selftest.records.json"
    pf_sim_pass(tools, suite, candidate)
    cases, clean_failed = check(tools, ref, candidate)
    doc = json.loads(ref.read_text())
    point = doc["records"][0]["points"][0]
    point["accepted"] = math.nextafter(point["accepted"], math.inf)
    perturbed = tools.work / "selftest.perturbed.json"
    perturbed.write_text(json.dumps(doc))
    _, perturbed_failed = check(tools, perturbed, candidate)
    ok = clean_failed == 0 and perturbed_failed > 0
    print(f"selftest: reference fail_frac {clean_failed / cases}, "
          f"perturbed reference fail_frac {perturbed_failed / cases}: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def write_ref(tools):
    """Regenerates ref/ at the default seed from pf_sim, after checking
    that traced bench_layers reproduces every record."""
    hops = {}
    (HERE / "ref").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        suite = write_suite(tools, workload, DEFAULT_SEED)
        records = HERE / "ref" / f"{workload}.json"
        pf_sim_pass(tools, suite, records)
        result = layers_pass(tools, suite, True, reference=records)
        if result["failed"]:
            raise BenchError(f"{workload}: bench_layers records differ")
        hops[workload] = result["sim.routing.hops"]
        log(f"{workload}: {result['cases']} cases, "
            f"{hops[workload]} routed hops")
    (HERE / "ref" / "hops.json").write_text(
        json.dumps(hops, indent=1, sort_keys=True) + "\n")
    return 0


# ---- compare ---------------------------------------------------------------


def compare(path_a, path_b, spec):
    """One row per workload and metric: A (parent) against B (change).

    The rule of the choosing-metrics guide: B shows a gain only when it
    wins at least 9 in 10 of the alternating pairs (ties count for
    neither) and the medians differ by more than A's interquartile range.
    """
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]

    def series(runs, workload, name):
        return [r["workloads"][workload]["metrics"][name]["value"]
                for r in runs if workload in r["workloads"]
                and name in r["workloads"][workload]["metrics"]]

    def quartiles(values):
        if len(values) < 2:
            return values[0], values[0], values[0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q1, q2, q3

    print(f"{'workload':<12} {'metric':<17} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8} {'won':>6}  verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            a = series(runs_a, workload, metric["name"])
            b = series(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            lower = metric["better"] == "lower"
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            pairs = list(zip(a, b))
            won = sum(1 for x, y in pairs if (y < x if lower else y > x))
            worse = (bm - am) if lower else (am - bm)
            if worse > metric["bound"] * abs(am):
                verdict = "regression"
            elif won >= 0.9 * len(pairs) and -worse > a3 - a1:
                verdict = "gain"
            elif a3 - a1 > metric["bound"] * abs(am) and won < len(pairs):
                verdict = "unresolved"
            else:
                verdict = "no change"
            if len(pairs) < 10:
                verdict += f" ({len(pairs)} pairs < 10)"
            print(f"{workload:<12} {metric['name']:<17} "
                  f"{am:>12.5g} [{a1:.5g}, {a3:.5g}] "
                  f"{bm:>12.5g} [{b1:.5g}, {b3:.5g}] "
                  f"{(bm - am) / am:>+8.1%} {won:>3}/{len(pairs):<2}  {verdict}")
    return 0


# ---- main ------------------------------------------------------------------

def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2], spec)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", help="append this run to a JSON document")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-ref", action="store_true")
    args = parser.parse_args(argv)

    # The program is built from the checkout's own sources.
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"run.py: {ROOT} holds no CMakeLists.txt and src/ to build")
        return 2
    tools = Tools(args.build_dir.resolve())
    tools.build()
    if args.selftest:
        return selftest(tools)
    if args.write_ref:
        return write_ref(tools)
    return measure(args, spec, tools)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(1)
