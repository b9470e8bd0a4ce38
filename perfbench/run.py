#!/usr/bin/env python3
"""OrpheusDB versioning benchmark: build, run, check, compare.

Run from the repository root.

  python3 perfbench/run.py
      Both workloads, seed 1: an untraced run (every end-to-end metric)
      and a traced run (every per-layer metric, next to the end-to-end
      metric it should move). Exits non-zero on a wrong answer or a
      lost acknowledged commit.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last stdout line is the result object:
      {"correct", "attempted", "failed", "metrics"} with the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its
      per-layer metrics (--trace 1).

  python3 perfbench/run.py sweep --seeds 1-10 [--workload <name>] [--trace <0|1>] --out <dir>
      Many seeds; keeps each full result in <dir> and prints each
      metric's median and quartile spread. Keep tuning seeds and
      claim-check seeds apart: seeds 1-99 for tuning, 1000 and up
      held out for checking a claimed gain.

  python3 perfbench/run.py compare <dir_a> <dir_b>
      Median and quartiles of every metric per workload for two result
      sets (parent, change); for the metrics BENCHMARK.json bounds,
      flags differences beyond the bound and spreads wider than the
      bound (unresolved).

The engine is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build); results, spans and scratch directories go to
.bench_runs. Both are inside the checkout.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUNS = ".bench_runs"
RUN_TIMEOUT_S = 170

# What each per-layer metric should move, and where (prefix match,
# first hit wins).
MOVES = [
    ("server.wire_ms", "checkout_p50_ms, query_p50_ms @ sci_explore"),
    ("server.bytes_out_per_op", "query_p50_ms @ sci_explore"),
    ("core.checkout.", "checkout_p50_ms, checkout_p99_ms @ sci_explore"),
    ("core.run.", "query_p50_ms @ sci_explore"),
    ("core.commit.", "commit_p50_ms, commit_p99_ms @ cur_commit"),
    ("core.sql.", "ops_per_s @ both"),
    ("core.discard.", "ops_per_s @ sci_explore"),
    ("core.lock_wait", "ops_per_s and p99s @ both"),
    ("process.cpu_ms_per_op", "ops_per_s @ both"),
    ("relstore.rows_scanned_per_op", "query_p50_ms @ sci_explore; ops_per_s @ cur_commit"),
    ("relstore.pages_read_per_op", "query_p50_ms @ sci_explore; ops_per_s @ cur_commit"),
    ("relstore.batches_per_op", "query_p50_ms @ sci_explore; ops_per_s @ cur_commit"),
    ("relstore.join", "checkout_p50_ms @ sci_explore"),
    ("relstore.hash_", "checkout_p50_ms @ sci_explore"),
    ("relstore.scan", "query_p50_ms @ sci_explore; ops_per_s @ cur_commit"),
    ("relstore.filter", "query_p50_ms @ sci_explore; ops_per_s @ cur_commit"),
    ("relstore.", "query_p50_ms @ sci_explore"),
    ("partition.optimize_ms", "setup_s @ sci_explore"),
    ("partition.lyresplit_ms", "setup_s @ sci_explore"),
    ("partition.build_ms", "setup_s @ sci_explore"),
    ("partition.partitions", "checkout_p50_ms, rss_mb @ sci_explore"),
    ("partition.est_", "checkout_p50_ms, rss_mb @ sci_explore"),
    ("partition.", "checkout_p50_ms @ sci_explore (zero on cur_commit)"),
    ("storage.wal_bytes_per_commit",
     "commit_p50_ms, disk_bytes_per_user_byte, recovery_s @ cur_commit"),
    ("storage.wal_syncs", "commit_p99_ms, ops_per_s @ cur_commit"),
    ("storage.group_size_mean", "commit_p99_ms, ops_per_s @ cur_commit"),
    ("storage.io_", "commit_p50_ms @ cur_commit"),
    ("storage.open_ms", "recovery_s @ cur_commit"),
    ("storage.replay_records", "recovery_s @ cur_commit"),
    ("storage.", "commit_p99_ms, disk_bytes_per_user_byte @ cur_commit"),
    ("obs.trace_overhead", "untraced / traced ops_per_s"),
]


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    logfile = os.path.join(root, "perfbench-build.log")
    os.makedirs(root, exist_ok=True)
    with open(logfile, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4),
                     "--target", "perfbench"]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                log("perfbench: build failed (%s); see %s" % (" ".join(cmd[:2]), logfile))
                return None
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns its full result object or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out", RUNS]
    # Own process group, so a timeout also stops the binary's children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s seed %s timed out" % (workload, seed))
        return None
    lines = out.decode().strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("perfbench: %s seed %s produced no result (exit %d)"
            % (workload, seed, proc.returncode))
        return None
    result = json.loads(lines[-1])
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    path = os.path.join(RUNS, "results", "%s-seed%s-trace%d.json"
                        % (workload, seed, 1 if trace else 0))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return result


def moves(name):
    for prefix, text in MOVES:
        if name.startswith(prefix):
            return text
    return ""


def print_result(result):
    w = result["workload"]
    prov = result["provenance"]
    print("== %s seed %s (%s) ==" % (w, result["seed"], "traced" if result["trace"] else "untraced"))
    print("dataset %s, %d distinct records; %d sessions; nproc %d; %s build, compiler %s; "
          "exec threads %d; group commit %s; %s; temp fs %s"
          % (prov["dataset"], prov["distinct_records"], prov["sessions"], prov["nproc"],
             prov["build_type"], prov["compiler"], prov["exec_threads"],
             "on" if prov["group_commit"] else "off", prov["flush_policy"], prov["temp_fs"]))
    print("window %.2f s; attempted %d, failed %d; answers checked %d; correct %s"
          % (result["window_s"], result["attempted"], result["failed"],
             result["checked_answers"], result["correct"]))
    if result["error"]:
        print("ERROR: " + result["error"])
    print("samples (attempted/ok): " + ", ".join(
        "%s %d/%d" % (v, s["attempted"], s["ok"]) for v, s in result["samples"].items()
        if s["attempted"]))
    for key, f in sorted(result["failures"].items()):
        print("failure class %-18s %6d  e.g. %s" % (key, f["count"], f["example"]))
    probe = result["defect_probe"]
    if probe["attempted"]:
        print("known-defect probe after the window (not in attempted/failed): %d ops"
              % probe["attempted"])
        for key, f in sorted(probe["failures"].items()):
            print("  probe failure class %-18s %4d  e.g. %s" % (key, f["count"], f["example"]))
    if result["e2e"]:
        print("%-28s %14s  %s" % ("end-to-end metric", "value", "unit"))
        for name, m in result["e2e"].items():
            print("%-28s %14.6g  %s" % (name, m["value"], m["unit"]))
    if result["per_layer"]:
        print("%-36s %14s  %-8s %s" % ("per-layer metric", "value", "unit", "moves"))
        for name, m in result["per_layer"].items():
            print("%-36s %14.6g  %-8s %s" % (name, m["value"], m["unit"], moves(name)))
        over = result["per_layer"].get("obs.trace_overhead")
        if over:
            print("obs.trace_overhead = %.4f (untraced ops/s / traced ops/s)" % over["value"])
    if result["spans_file"]:
        print("spans: " + result["spans_file"])
    print()


def result_line(result, spec, trace):
    """The one-line result object, with exactly the metrics the spec lists."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = result["per_layer"] if trace else result["e2e"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing or with another unit in %s"
                % (m["name"], result["workload"]))
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def load_results(directory):
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        out.setdefault(r["workload"], []).append(r)
    return out


def metric_values(results, section):
    values = {}
    for r in results:
        for name, m in r[section].items():
            values.setdefault(name, []).append(m["value"])
    return values


def cmd_sweep(args, spec):
    binary = build()
    if binary is None:
        return 1
    os.makedirs(args.out, exist_ok=True)
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for w in workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            r = run_once(binary, w, seed, seconds, args.trace)
            if r is None or not r["correct"]:
                status = 1
                if r is not None:
                    log("perfbench: %s seed %d WRONG: %s" % (w, seed, r["error"]))
                continue
            with open(os.path.join(args.out, "%s-seed%d-trace%d.json"
                                   % (w, seed, args.trace)), "w") as f:
                json.dump(r, f, indent=1)
            results.append(r)
            log("%s seed %d done" % (w, seed))
        section = "per_layer" if args.trace else "e2e"
        print("== %s: %d runs ==" % (w, len(results)))
        print("%-36s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "iqr/med"))
        for name, vals in metric_values(results, section).items():
            med, q1, q3, rel = spread(vals)
            print("%-36s %12.6g %12.6g %12.6g %8.4f" % (name, med, q1, q3, rel))
    return status


def cmd_compare(args, spec):
    a, b = load_results(args.a), load_results(args.b)
    limits = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    flagged = 0
    for w in sorted(set(a) | set(b)):
        for section in ("e2e", "per_layer"):
            va = metric_values([r for r in a.get(w, []) if r[section]], section)
            vb = metric_values([r for r in b.get(w, []) if r[section]], section)
            names = [n for n in va if n in vb]
            if not names:
                continue
            print("== %s (%s): A=%s (%d runs), B=%s (%d runs) ==" % (
                w, section, args.a, len(next(iter(va.values()))), args.b,
                len(next(iter(vb.values())))))
            print("%-36s %11s %11s %11s | %11s %11s %11s %8s  %s" % (
                "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3",
                "change", "verdict"))
            for n in names:
                ma, qa1, qa3, ra = spread(va[n])
                mb, qb1, qb3, rb = spread(vb[n])
                change = (mb - ma) / abs(ma) if ma else 0.0
                verdict = ""
                if section == "e2e" and n in limits:
                    better, bound = limits[n]
                    worse = change > bound if better == "lower" else change < -bound
                    if n == "setup_s" or max(ra, rb) <= bound:
                        verdict = "REGRESSION" if worse else "ok"
                    else:
                        verdict = "unresolved (spread %.3f > bound %.3f)" % (max(ra, rb), bound)
                    flagged += verdict != "ok"
                print("%-36s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g %+7.1f%%  %s" % (
                    n, ma, qa1, qa3, mb, qb1, qb3, 100 * change, verdict))
            print()
    return 1 if flagged else 0


def cmd_single(args, spec):
    binary = build()
    if binary is None:
        return 1
    result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print_result(result)
    line = result_line(result, spec, args.trace)
    if line is None:
        return 1
    print(line)
    return 0 if result["correct"] else 1


def cmd_all(spec):
    binary = build()
    if binary is None:
        return 1
    status = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_once(binary, w["name"], 1, spec["run_seconds"], trace)
            if result is None:
                status = 1
                continue
            print_result(result)
            status |= 0 if result["correct"] else 1
    return status


def main():
    argv = sys.argv[1:]
    spec = load_spec()
    if argv and argv[0] == "sweep":
        p = argparse.ArgumentParser(prog="run.py sweep")
        p.add_argument("--seeds", required=True)
        p.add_argument("--workload")
        p.add_argument("--seconds", type=int)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--out", required=True)
        return cmd_sweep(p.parse_args(argv[1:]), spec)
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]), spec)
    if not argv:
        return cmd_all(spec)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(p.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
