"""Child side of the benchmark: the reference kernel, the set-up probe and
the request server.

    python3 perfbench/child.py setup   one cold start: kernel, then import
    python3 perfbench/child.py serve   read requests on stdin, one per line

The set-up probe runs the kernel with only this module and the standard
library loaded, then imports ``fkforest.cli`` and reports the clock
readings.

The server imports ``fkforest.cli`` once and forks one child per request,
so every request sees the module-level caches as a fresh process does,
without paying interpreter start and import each time (set-up is measured
by the probe instead).  Each forked child runs the kernel, calls
``fkforest.cli.main(argv)`` once and exits; the server answers with one
JSON line per request.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from math import gcd

# A request that runs longer than this is killed and counted as failed.
REQUEST_TIMEOUT_S = 60


def _add(a: int, b: int, c: int, d: int) -> tuple:
    # a/b + c/d in lowest terms, as Fraction.__add__ does with plain ints
    n = a * d + c * b
    den = b * d
    g = gcd(n, den)
    return n // g, den // g


def kernel() -> float:
    """Fixed plain-Python work: dict updates under tuple keys, then
    rational additions on plain ints with gcd reduction.

    It stands for the speed of the machine at the moment a request runs.
    The two halves are weighted so that the request latency of every
    workload scales about in proportion with the kernel time as the
    host's speed changes; either half alone over- or under-shoots.
    The garbage collector is off while it runs so that the heap the
    caller happens to hold does not change its cost.  Returns seconds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        x = 1
        for i in range(30000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = ((x >> 12) & 1023, i & 7)
            table[key] = table.get(key, 0) + (x >> 16)
        a, b = 1, 1
        for _ in range(15000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            a, b = _add(a, b, (x >> 8) | 1, (x >> 3) | 1)
            if b.bit_length() > 200:
                a, b = (a & 0xFFFF) | 1, (b & 0xFFFF) | 1
        check = (sum(table.values()) + a + b) & 0xFFFF
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if check != _KERNEL_CHECK:
        raise RuntimeError("reference kernel computed a wrong checksum")
    return elapsed


_KERNEL_CHECK = 33373


def setup_probe() -> None:
    k0 = time.perf_counter()
    kernel_s = kernel()
    k1 = time.perf_counter()
    import fkforest.cli  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    print(json.dumps({"t_kernel_start": k0, "kernel_s": kernel_s,
                      "t_kernel_end": k1, "t_imported": imported}))


def _run_request(req: dict, write_fd: int) -> int:
    """Body of one forked child; returns the exit code."""
    import signal
    from fkforest import cli

    signal.alarm(REQUEST_TIMEOUT_S)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    kernel_s = kernel()
    mode = req["mode"]
    tracer = profiler = None
    if mode == "trace":
        import layers
        tracer = layers.Tracer(req["id"])
        tracer.install()
    elif mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
    t0 = time.perf_counter()
    try:
        if profiler is not None:
            rc = profiler.runcall(cli.main, req["argv"])
        else:
            rc = cli.main(req["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter()
    payload = {"kernel_s": kernel_s, "t_main_start": t0, "t_main_end": t1,
               "rc": rc}
    if tracer is not None:
        payload["trace"] = tracer.summary()
    if profiler is not None:
        import layers
        payload["fractions_share"] = layers.fractions_share(profiler)
    data = json.dumps(payload).encode("ascii")
    while data:
        data = data[os.write(write_fd, data):]
    return rc


def serve() -> None:
    from fkforest import cli  # noqa: F401  (imported once, before forking)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for line in sys.stdin:
        req = json.loads(line)
        # the same heap state before every fork, whatever the loop allocated
        gc.collect()
        read_fd, write_fd = os.pipe()
        t_fork = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 3
            try:
                code = _run_request(req, write_fd)
            except BaseException:
                # the child must never return into the server loop
                import traceback
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code if 0 <= code < 256 else 3)
        os.close(write_fd)
        chunks = []
        while True:
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
        t_exit = time.perf_counter()
        raw = b"".join(chunks)
        answer = {"id": req["id"], "t_fork": t_fork, "t_exit": t_exit,
                  "status": status, "maxrss_kb": usage.ru_maxrss,
                  "child": json.loads(raw) if raw else None}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        setup_probe()
    elif sys.argv[1:] == ["serve"]:
        serve()
    else:
        sys.exit("usage: child.py setup|serve")
