"""Benchmark of the ``cluster-deform`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lift --seed 3 --seconds 30 --trace 0

Each case of the workload (see ``cases.py``) runs as a fresh child,
``python -m clusterdeform.cli <command> --json <seed file>`` with
``PYTHONPATH=src``, one child at a time.  Every output is checked: at the
default workload seed against the exit code and SHA-256 pinned in
``expected.json``, at other seeds against the facts that do not depend on the
initial seed.  A mismatch, an unexpected exit code or a timeout fails the case.

With ``--trace 0`` the run repeats whole passes over the cases for about
``--seconds`` and prints the end-to-end metrics from each case's median
over the passes.
With ``--trace 1`` it makes one untraced and one traced pass (children run
through ``traced_cli.py``) and prints per-layer self time and call counts.
The last line of stdout is the JSON result.
"""

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
EXPECTED = os.path.join(HERE, "expected.json")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
# Ten times the slowest case (d4 ``cone``, about 3 s).
CASE_TIMEOUT_S = 30.0
# No case starts after this, and a running one is cut at it, so a run whose
# cases hang still ends within 180 s.
RUN_LIMIT_S = 165.0
SETUP_BURST_S = 0.1


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout


def run_child(argv, timeout, out_path):
    """Run one child to completion or until ``timeout`` seconds.

    Returns (exit code, wall seconds, CPU seconds, max RSS in MB, timed out).
    The child is waited for without being reaped first, so the kill on
    timeout can never reach a recycled pid; its rusage comes from wait4.
    """
    env = dict(os.environ, PYTHONPATH="src")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env)
        timed_out = False
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except CaseTimeout:
            timed_out = True
            os.kill(proc.pid, signal.SIGKILL)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, timed_out


def facts(command, code, payload):
    """Facts of one output that do not depend on the initial seed."""
    out = {"exit": code}
    if command == "lift":
        out["generators"] = len(payload["generators"])
        out["variables"] = len(payload["variables"])
        out["verified"] = all(payload["verify"].values())
    elif command == "cone":
        out["ambient"] = len(payload["ambient"])
    elif command == "check":
        out["holds"] = payload["holds"]
    elif command == "grading":
        out["free_rank"] = payload["free_rank"]
        out["strictly_positive_found"] = (
            payload["strictly_positive_grading"] is not None)
    elif command == "enumerate":
        for key in ("variables", "clusters", "exchange_pairs"):
            out[key] = len(payload[key])
    elif command == "sr-ideal":
        out["variables"] = len(payload["variables"])
        out["generators"] = len(payload["generators"])
    return out


def observe(command, code, stdout):
    """Digest and facts of one case's output; facts are None if unparsable."""
    digest = hashlib.sha256(stdout).hexdigest()
    try:
        payload = json.loads(stdout)
        return digest, facts(command, code, payload), payload
    except (ValueError, KeyError, TypeError, AttributeError):
        return digest, None, None


def mismatch(expected, pinned, code, digest, observed_facts):
    """Why a case's output is wrong, or None when it is right.

    ``pinned`` is true at the default workload seed, where the whole output
    must match its recorded digest; elsewhere only the facts must match.
    """
    if expected is None:
        return "no expected output recorded"
    if code != expected["exit"]:
        return "exit code %d, expected %d" % (code, expected["exit"])
    if pinned:
        if digest != expected["sha256"]:
            return "output digest %s, expected %s" % (digest,
                                                      expected["sha256"])
    elif observed_facts != expected["facts"]:
        return "facts %s, expected %s" % (observed_facts, expected["facts"])
    return None


class Case:
    def __init__(self, case_id, argv, seed_file):
        self.case_id = case_id
        self.command = argv[0]
        self.argv = argv + ["--json", seed_file]


def run_pass(cases, pinned, expected, deadline, traced=False):
    """Run every case once, in order; returns one record per case."""
    records = []
    for case in cases:
        out_path = os.path.join(WORK_DIR, case.case_id + ".out")
        spans_path = os.path.join(WORK_DIR, case.case_id + ".spans")
        if traced:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            argv = [sys.executable, TRACED_CLI, spans_path, case.case_id,
                    "--"] + case.argv
        else:
            argv = [sys.executable, "-m", "clusterdeform.cli"] + case.argv
        timeout = min(CASE_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            records.append({"case": case.case_id, "failure": "not started: "
                            "run time limit reached", "exit": None,
                            "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0,
                            "payload": None})
            continue
        code, wall, cpu, rss, timed_out = run_child(argv, timeout, out_path)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        digest, observed, payload = observe(case.command, code, stdout)
        if timed_out:
            failure = "timed out after %.1f s" % timeout
        else:
            failure = mismatch(expected.get(case.case_id), pinned, code,
                               digest, observed)
        record = {"case": case.case_id, "failure": failure, "exit": code,
                  "sha256": digest, "facts": observed, "wall": wall,
                  "cpu": cpu, "rss_mb": rss, "payload": payload}
        if traced:
            try:
                with open(spans_path) as fh:
                    record["spans"] = json.load(fh)
            except (OSError, ValueError):
                record["spans"] = []
        records.append(record)
    return records


def set_up(workload, workload_seed, times):
    """Write the workload's seed files; returns their paths by seed name.

    Set-up is repeated for at least ``SETUP_BURST_S`` and each set-up's time
    appended to ``times``.  A run sets up before its first pass and again
    after every pass, so the median spans the whole run and is steady even
    where one set-up takes milliseconds.
    """
    from cases import write_seeds
    seed_dir = os.path.join(WORK_DIR, "seeds")
    burst_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        paths = write_seeds(workload, workload_seed, seed_dir)
        end = time.perf_counter()
        times.append(end - start)
        if end - burst_start >= SETUP_BURST_S:
            return paths


def prepare(workload, workload_seed):
    """The workload's cases on freshly written seed files, and the set-up
    times."""
    from cases import WORKLOADS
    times = []
    paths = set_up(workload, workload_seed, times)
    cases = [Case(case_id, list(argv), paths[seed])
             for case_id, seed, argv in WORKLOADS[workload]]
    return cases, times


def end_to_end(passes, setup_times):
    """End-to-end metrics from each case's median over the passes.

    ``wall_s`` and ``cpu_s`` add up the cases' medians, ``max_case_s`` and
    ``peak_rss_mb`` are the largest of them, so one outlying sample moves
    none of them.
    """
    def medians(key):
        return [statistics.median(r[key] for r in case)
                for case in zip(*passes)]
    walls = medians("wall")
    return {"wall_s": sum(walls), "cpu_s": sum(medians("cpu")),
            "max_case_s": max(walls), "peak_rss_mb": max(medians("rss_mb")),
            "setup_s": statistics.median(setup_times)}


def span_self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    self_times = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_times[parent] -= end - start
    return self_times


def layer_totals(records):
    """Per function and per layer: calls, self seconds, inclusive seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  The ``cli`` layer's self time is each case's
    wall time minus the self time of every other layer's spans, so it
    covers interpreter start, imports, parsing and output formatting.
    """
    totals = {}

    def add(name, key, value):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "incl_s": 0.0})
        entry[key] += value

    for record in records:
        spans = record.get("spans", [])
        self_times = span_self_times(spans)
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            add(name, "calls", 1)
            add(name, "self_s", self_times[i])
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:
                add(name, "incl_s", end - start)
            add(layer, "calls", 1)
            if layer != "cli":
                add(layer, "self_s", self_times[i])
                covered += self_times[i]
        add("cli", "self_s", record["wall"] - covered)
    return totals


def per_layer(records, untraced_wall, metric_names):
    totals = layer_totals(records)
    lifted = [r["payload"] for r in records
              if r["case"].startswith("lift-") and r["payload"]]
    derived = {
        "deform.family_order": sum(p["order"] for p in lifted),
        "deform.generators": sum(len(p["generators"]) for p in lifted),
        "trace.overhead_s": sum(r["wall"] for r in records) - untraced_wall,
    }
    values = {}
    for name in metric_names:
        if name in derived:
            values[name] = derived[name]
            continue
        owner, key = name.rsplit(".", 1)
        values[name] = totals.get(owner, {}).get(key, 0)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "clusterdeform", "cli.py")):
        print("perfbench: run from a checkout that holds src/clusterdeform",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from cases import DEFAULT_SEED, EXCLUDED, WORKLOADS
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload,
              file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    cases, setup_times = prepare(args.workload, args.seed)
    # compile the package before timing, so no case pays for it
    compileall.compile_dir(os.path.join("src", "clusterdeform"), quiet=1)
    pinned = args.seed == DEFAULT_SEED
    passes = []
    while True:
        passes.append(run_pass(cases, pinned, expected, deadline))
        set_up(args.workload, args.seed, setup_times)
        elapsed = time.perf_counter() - started
        if args.trace or elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    if args.trace:
        passes.append(run_pass(cases, pinned, expected, deadline,
                               traced=True))

    records = [r for p in passes for r in p]
    failures = [r for r in records if r["failure"]]
    for r in failures:
        print("FAILED %s: %s" % (r["case"], r["failure"]))
    untraced = passes[:1] if args.trace else passes
    for i, case in enumerate(cases):
        walls = [p[i]["wall"] for p in untraced]
        print("case %-28s %8.3f s  %7.1f MB  median of %d" % (
            case.case_id, statistics.median(walls),
            max(p[i]["rss_mb"] for p in untraced), len(walls)))
    e2e = end_to_end(untraced, setup_times)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, value in e2e.items():
        count = len(setup_times) if name == "setup_s" else len(untraced)
        print("%-12s %12.4f %-3s median of %d" % (
            name, value, e2e_units[name], count))
    print("%-12s %12.4f     %d of %d cases" % (
        "failed_share", len(failures) / len(records), len(failures),
        len(records)))
    for case_id, reason in EXCLUDED:
        print("excluded %s: %s" % (case_id, reason))

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(passes[-1], sum(r["wall"] for r in passes[0]),
                           names)
    else:
        units, values = e2e_units, e2e
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
