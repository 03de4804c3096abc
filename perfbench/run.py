"""Benchmark runner: one client, closed loop, one CLI request at a time.

    python3 perfbench/run.py --workload expand-flat --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  Each request is one call of
``fkforest.cli.main(argv)`` in a fresh forked child (see child.py), on
inputs this benchmark generates (see inputs.py) and whose output digest
must match reference.json.  Times are normalized by the reference kernel
that every child runs just before its request; see NOTES.md.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones, each entry holding only its value
and unit.  A per-layer metric that was not measured reads 0; the lines
before the result name it, and the run record marks it.  Raw and
normalized values of every request are written to .perfbench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402

# Kernel time that normalized values are scaled to, fixed once; a value of
# X s means "X s on a machine that runs the reference kernel in this time".
KERNEL_NOMINAL_S = 0.050

SETUP_PROBES = 7
REFERENCE_FILE = os.path.join(HERE, "reference.json")
RECORD_DIR = os.path.join(inputs.WORK_DIR, "records")

# request modes of a traced run, repeated in this order
TRACE_CYCLE = ("plain", "trace", "plain", "trace", "profile")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, reference or child)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # string hashing, and so set and dict iteration, is the same every run
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS pool would otherwise start a worker thread per core at
    # import; on a shared 2-vCPU host that start took 65 ms or more, varying
    # with the other core's load.  None of the benchmarked commands calls
    # BLAS.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def check_checkout() -> dict:
    if not os.path.isfile(os.path.join("src", "fkforest", "cli.py")):
        raise BenchError("src/fkforest/cli.py not found; run from the "
                         "repository root")
    if not os.path.isfile(REFERENCE_FILE):
        raise BenchError("reference digests %s missing" % REFERENCE_FILE)
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup_probe(env: Dict[str, str]) -> dict:
    """One cold start; raw set-up excludes the kernel the probe runs."""
    t_spawn = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                          "setup"], env=env, capture_output=True, text=True,
                         timeout=60)
    if out.returncode != 0:
        raise BenchError("set-up probe failed:\n" + out.stderr)
    p = json.loads(out.stdout.strip().splitlines()[-1])
    raw = (p["t_kernel_start"] - t_spawn) + (p["t_imported"]
                                             - p["t_kernel_end"])
    return {"kind": "setup", "setup_raw_s": raw, "kernel_s": p["kernel_s"]}


class Server:
    """The request server of child.py, fed one request at a time."""

    def __init__(self, env: Dict[str, str]):
        os.makedirs(inputs.WORK_DIR, exist_ok=True)
        self.log = open(os.path.join(inputs.WORK_DIR, "server-stderr.log"),
                        "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            env=env, text=True)
        self.next_id = 0
        # nothing is timed while the server is still importing the program
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise BenchError("request server did not start; see %s"
                             % self.log.name)

    def request(self, argv: List[str], mode: str) -> dict:
        req = {"id": self.next_id, "argv": argv, "mode": mode}
        self.next_id += 1
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("request server exited; see %s"
                             % self.log.name)
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def run_one(server: Server, workload: str, index: int, mode: str,
            reference: Optional[str]) -> dict:
    """Write the inputs, run one request, check its output."""
    for path, data in inputs.input_files(workload, index).items():
        with open(path, "wb") as fh:
            fh.write(data)
    if os.path.exists(inputs.OUT_PATH):
        os.remove(inputs.OUT_PATH)
    ans = server.request(inputs.request_argv(workload), mode)
    child = ans["child"] or {}
    rec = {"kind": "request", "id": ans["id"], "index": index, "mode": mode,
           "maxrss_kb": ans["maxrss_kb"], "kernel_s": child.get("kernel_s")}
    status = ans["status"]
    data = None
    if os.path.exists(inputs.OUT_PATH):
        with open(inputs.OUT_PATH, "rb") as fh:
            data = fh.read()
    rec["digest"] = inputs.output_digest(data)
    if os.WIFSIGNALED(status):
        rec["error"] = "killed by signal %d" % os.WTERMSIG(status)
    elif os.WEXITSTATUS(status) != 0 or child.get("rc") != 0:
        rec["error"] = "exit code %d" % os.WEXITSTATUS(status)
    elif data is None:
        rec["error"] = "no output file"
    elif reference is not None and rec["digest"] != reference:
        rec["error"] = "output digest differs from the reference"
    if rec["kernel_s"] is not None:
        rec["latency_raw_s"] = child["t_main_end"] - child["t_main_start"]
        # spawn to exit of the child, without the kernel it ran first
        rec["service_raw_s"] = (ans["t_exit"] - ans["t_fork"]
                                - child["kernel_s"])
        rec["trace"] = child.get("trace")
        rec["fractions_share"] = child.get("fractions_share")
    return rec


def normalize(children: List[dict]) -> None:
    """Scale raw times to the nominal kernel time.

    children holds every set-up probe and request of the run in the order
    they ran.  Each one's factor is the nominal kernel time over the mean
    of its own kernel time and the next child's, which bracket it.
    """
    kernels = [c["kernel_s"] for c in children]
    for i, c in enumerate(children):
        bracket = kernels[i:i + 2]
        c["factor"] = KERNEL_NOMINAL_S / (sum(bracket) / len(bracket))
        for key in ("latency", "service", "setup"):
            if key + "_raw_s" in c:
                c[key + "_s"] = c[key + "_raw_s"] * c["factor"]


def p80(values: List[float]) -> float:
    return statistics.quantiles(values, n=5)[3]


def end_to_end(records: List[dict], setup: List[dict]) -> Dict[str, float]:
    ok = [r for r in records if "error" not in r]
    if not setup:
        raise BenchError("no set-up probe ran; is --seconds positive?")
    if len(ok) < 2:
        errors = [r["error"] for r in records if "error" in r]
        raise BenchError("fewer than two requests succeeded; first error: %s"
                         % (errors[0] if errors else "none"))
    lat = [r["latency_s"] for r in ok]
    service = sum(r["service_s"] for r in records if "service_s" in r)
    return {
        "req_p50_s": statistics.median(lat),
        "req_p80_s": p80(lat),
        "req_per_s": len(ok) / service,
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records: List[dict]) -> Tuple[Dict[str, float],
                                             Dict[str, dict]]:
    """Per-layer metrics of a traced run, and marks for those that were not
    measured or whose targets are partly absent.

    A metric whose groups had no call in any traced request (the layer is
    absent, bypassed, or does not run on this workload) reads 0 and is
    marked {"measured": False}; the mark also lists the absent targets of
    its groups.  A measured metric is marked only when some of its targets
    are absent.
    """
    ok = [r for r in records if "error" not in r]
    traced = [r for r in ok if r["mode"] == "trace"]
    plain = [r for r in ok if r["mode"] == "plain"]
    profiled = [r for r in ok if r["mode"] == "profile"]
    if not traced or not plain:
        raise BenchError("a traced run needs traced and plain requests")
    calls = {g: sum(r["trace"]["groups"][g]["calls"] for r in traced)
             for g in layers.GROUPS}
    calls[layers.PATH_GROUP] = sum(r["trace"]["path_walks"] for r in traced)
    absent = {name for r in traced for name in r["trace"]["absent"]}

    m: Dict[str, float] = {}
    marks: Dict[str, dict] = {}

    def put(name, value, groups, ran=True):
        ran = ran and all(calls[g] for g in groups)
        mark = {}
        if not ran:
            mark["measured"] = False
        gone = sorted(t for g in groups for t in layers.group_targets(g)
                      if t in absent)
        if gone:
            mark["absent"] = gone
        if mark:
            marks[name] = mark
        m[name] = value if ran else 0.0

    def time_of(group):
        return _median(r["trace"]["groups"][group]["time"] * r["factor"]
                       for r in traced)

    def calls_of(group):
        return _median(r["trace"]["groups"][group]["calls"] for r in traced)

    def self_of(layer):
        return _median(r["trace"]["layer_self"][layer] * r["factor"]
                       for r in traced)

    def total(fn):
        return sum(fn(r["trace"]) for r in traced)

    for prefix in ("forest", "colored_forest"):
        g = prefix + ".enum"
        put(prefix + ".enum_s", time_of(g), [g])
        put(prefix + ".enum_calls", calls_of(g), [g])
        put(prefix + ".classes",
            _median(r["trace"]["classes"][g][0] for r in traced), [g])
        put(prefix + ".distinct_share",
            _share(total(lambda t: t["classes"][g][1]),
                   total(lambda t: t["classes"][g][0])), [g])
    put("genfunc.count_s", time_of("genfunc.count"), ["genfunc.count"])
    delta = ["fk_core.delta"]
    put("fk_core.delta_s", time_of("fk_core.delta"), delta)
    put("fk_core.deltas", calls_of("fk_core.delta"), delta)
    for name in ("pushforward", "transport", "symmetrize", "scale_add",
                 "pair"):
        g = "fk_core." + name
        put(g + "_s", time_of(g), [g])
    put("fk_core.entries", _median(r["trace"]["entries"] for r in traced),
        delta)
    put("fk_core.nonzero_share", _share(total(lambda t: t["nonzero"]),
                                        total(lambda t: t["entries"])), delta)
    put("particle.oracle_s", time_of("particle.oracle"), ["particle.oracle"])
    paths = [layers.PATH_GROUP]
    put("particle.paths", _median(r["trace"]["paths"] for r in traced),
        paths)
    put("particle.paths_per_s", _median(
        _share(r["trace"]["paths"],
               r["trace"]["groups"]["particle.oracle"]["time"] * r["factor"])
        for r in traced), paths + ["particle.oracle"])
    put("expansion.self_s", self_of("expansion"), ["expansion.api"])
    put("expansion.check_s", time_of("expansion.check"), ["expansion.check"])
    put("models.load_s", time_of("models.load"), ["models.load"])
    put("cli.self_s", self_of("cli"), ["cli"])
    put("fractions.self_share",
        _median(r["fractions_share"] for r in profiled), [],
        ran=bool(profiled))
    put("trace.overhead", _median(r["latency_s"] for r in traced)
        / _median(r["latency_s"] for r in plain) - 1.0, [])
    return m, marks


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    # git must not climb above the checkout into an enclosing repository
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_units() -> Dict[str, str]:
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    refs = check_checkout()["workloads"][workload]
    env = child_env()
    os.makedirs(RECORD_DIR, exist_ok=True)
    order = inputs.visit_order(workload, seed, 4096)
    children: List[dict] = []
    records: List[dict] = []
    setup: List[dict] = []
    # set-up probes are spread evenly over the run, so that one slow
    # moment of the host cannot shift all of them
    probes = 0 if trace else SETUP_PROBES
    server = Server(env)
    try:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
            if len(setup) < probes and elapsed >= len(setup) * seconds \
                    / probes:
                setup.append(setup_probe(env))
                children.append(setup[-1])
                continue
            i = len(records)
            mode = TRACE_CYCLE[i % len(TRACE_CYCLE)] if trace else "plain"
            index = order[i]
            records.append(run_one(server, workload, index, mode,
                                   refs[index]))
            if records[-1]["kernel_s"] is not None:
                children.append(records[-1])
    finally:
        server.close()
    normalize(children)

    if trace:
        metrics, marks = per_layer(records)
    else:
        metrics, marks = end_to_end(records, setup), {}
    failed = sum(1 for r in records if "error" in r)
    absent = sorted({name for r in records if r.get("trace")
                     for name in r["trace"]["absent"]})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "elapsed_s": elapsed,
        "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "requests": len(records), "failed": failed,
        "fail_share": failed / len(records),
        "kernel_nominal_s": KERNEL_NOMINAL_S, "absent": absent,
        "metrics": metrics, "marks": marks, "children": children,
        "failed_requests": [r for r in records if r["kernel_s"] is None],
    }
    path = os.path.join(RECORD_DIR, "%s-seed%d-trace%d.json"
                        % (workload, seed, int(trace)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        units = load_units()
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("perfbench: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    kernels = [c["kernel_s"] for c in rec["children"]]
    print("workload %s seed %d: %d requests (%d failed) in %.1f s, "
          "python %s, nproc %s, commit %s" % (
              rec["workload"], rec["seed"], rec["requests"], rec["failed"],
              rec["elapsed_s"], rec["python"], rec["nproc"], rec["commit"]))
    print("kernel raw median %.5f s (nominal %.5f s); fail_share %.4f; "
          "record %s" % (_median(kernels), KERNEL_NOMINAL_S,
                         rec["fail_share"], rec["path"]))
    if rec["absent"]:
        print("absent targets: " + ", ".join(rec["absent"]))
    for name, value in rec["metrics"].items():
        mark = rec["marks"].get(name, {})
        print("  %-26s %.6g %s%s" % (
            name, value, units[name],
            "" if mark.get("measured", True) else "  (not measured)"))
    # the result line takes a number and a unit per metric and nothing
    # else, so a metric that was not measured is named here and reads 0
    idle = [name for name, mark in rec["marks"].items()
            if not mark.get("measured", True)]
    if idle:
        print("not measured: " + ", ".join(idle))
    print(json.dumps(result_line(rec, units)))
    return 0


def result_line(rec: dict, units: Dict[str, str]) -> dict:
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["requests"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rec["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
