"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py <job.json>

The job names a mode. ``timed`` runs set-up ``setup_repeats`` times, then the
timed commands once and again while a further pass still ends within
``seconds``, and records wall and CPU time per command together with the
machine-speed probe taken right after it. ``traced`` installs the tracer, runs
every command once, each followed by the probe outside its span, then re-runs
``pipeline`` with every stamp fresh, and writes the spans and counts. Every command goes through ``oodscan.cli.main``,
one call per stage. The result is written to ``job["out"]`` as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SETUP  # noqa: E402

NOOP_RERUNS = 5
PROBE_REPEATS = 5


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def probe_s() -> float:
    """Seconds a fixed CPU kernel takes now, the mean of PROBE_REPEATS runs.

    The kernel is a small recursive split search written here: stable
    argsorts, prefix sums and fancy indexing on a few hundred rows, driven by
    a Python loop. That is the mix oodscan spends its time in, so the
    kernel slows down when the machine slows the program down. It shares no
    code with oodscan, so no change to the program can change its time.
    """
    import numpy as np

    x = np.random.default_rng(2).normal(size=(512, 16))
    w = np.random.default_rng(3).random(512)
    total = 0.0
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        stack = [np.arange(512)]
        while stack:
            idx = stack.pop()
            if idx.size < 8:
                continue
            best_k, best_order = -1, None
            for j in range(4):
                order = np.argsort(x[idx, (5 * j + idx.size) % 16], kind="stable")
                c = np.cumsum(w[idx][order])
                k = int(np.argmax(c * (c[-1] - c)))
                if k > best_k:
                    best_k, best_order = k, order
            stack.append(idx[best_order[:best_k + 1]])
            stack.append(idx[best_order[best_k + 1:]])
        total += time.perf_counter() - start
    return total / PROBE_REPEATS


class Runner:
    """CLI calls, each followed by the machine-speed probe when ``probe``."""

    def __init__(self, cli_main, probe: bool):
        self.cli_main = cli_main
        self.probe = probe

    def __call__(self, argv: list[str]) -> dict:
        """One CLI call: exit code, wall and CPU seconds. Stdout is discarded."""
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli_main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            rc = -1
        out = {"command": argv[0], "rc": rc,
               "wall_s": time.perf_counter() - wall0,
               "cpu_s": cpu_seconds() - cpu0}
        if self.probe:
            out["probe_s"] = probe_s()
        return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    common = ["--config", job["config"], "--workdir", job["workdir"],
              "--threads", str(job["threads"])]

    def argv(command: list[str]) -> list[str]:
        return [command[0], *common, *command[1:]]

    commands = [list(c) for c in job["commands"]]
    out: dict = {"setup": [], "iterations": []}

    if job["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        from oodscan.cli import main as cli_main

        run = Runner(cli_main, probe=False)
        calls = []
        for command in [[s] for s in SETUP] + commands + [["pipeline"]] * NOOP_RERUNS:
            with tracer.span("cli." + command[0]):
                call = run(argv(command))
            call["probe_s"] = probe_s()  # outside the span: not a layer's time
            calls.append(call)
        out["calls"] = calls
        tracer.dump(job["spans"], job["counts"])
    else:
        from oodscan.cli import main as cli_main

        run = Runner(cli_main, probe=True)
        for _ in range(job["setup_repeats"]):
            out["setup"].append([run(argv([s])) for s in SETUP])
        # repeat while another iteration, as long as the last, still fits
        start = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            out["iterations"].append([run(argv(c)) for c in commands])
            now = time.perf_counter()
            if now + (now - it_start) - start > job["seconds"]:
                break

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss_kb / 1024.0
    Path(job["out"]).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
