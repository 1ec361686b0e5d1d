"""Benchmark of the oodscan pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The load is a closed loop with one client:
one pipeline at a time, through ``oodscan.cli.main``, one call per stage, in
a fresh interpreter (``child.py``). ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` adds a separate traced pass at
``--threads 1`` and prints the per-layer metrics. Every run checks the
output bytes; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when no
operation failed. Run files go to ``.perfbench_runs/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    Expected,
    artifacts,
    expected_calls,
    invariant_checks,
    per_seed_table,
    sha256,
)
from workloads import DETECT, SETUP, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
# Probe time (child.probe_s) of the machine the baseline was taken on: the
# median probe_ms of a calibration set of ten `sep` runs, seeds 0-9, at
# --trace 0 (5.47 ms; the two sets in baseline.json read 5.97 and 5.34 ms),
# so that reference seconds are that machine's seconds at its median speed. A one-thread workload reports reference seconds: seconds x
# REF_PROBE_S / the mean probe of the same phase (set-up or timed passes),
# the probe being taken after every command on the CPU the program runs on.
# A shared machine's speed drifts by tens of percent over minutes; the
# scaling removes that drift and leaves every change of the program's own
# work in the figure, as no program change can move the probe. Workloads on
# more threads spread over CPUs that one probe thread does not see, and
# report plain seconds.
REF_PROBE_S = 0.00547


class Ops:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED {what}", file=sys.stderr)

    def check(self, name: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # malformed output fails the check, any way
            self.record(False, f"check {name}: {exc!r}")
        else:
            self.record(True, name)

    def calls(self, calls: list[dict], label: str) -> None:
        for c in calls:
            self.record(c["rc"] == 0, f"{label} {c['command']} exit {c['rc']}")


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
    }


def run_child(job: dict, run_dir: Path, deadline: float) -> dict:
    """Run child.py on ``job``; raise TimeoutError past ``deadline``."""
    job_path = run_dir / f"{job['mode']}.job.json"
    job_path.write_text(json.dumps(job, indent=1))
    threads = str(job["threads"])
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise TimeoutError(f"{job['mode']} pass exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{job['mode']} pass exited {proc.returncode}")
    return json.loads(Path(job["out"]).read_text())


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _walls(calls: list[dict], names) -> float:
    return sum(c["wall_s"] for c in calls if c["command"] in names)


def mean_probe(passes: list[list[dict]]) -> float:
    return statistics.fmean(c["probe_s"] for p in passes for c in p)


def phase_scale(passes: list[list[dict]], scaled: bool) -> float:
    """Factor to reported seconds: REF_PROBE_S over the passes' mean probe."""
    return REF_PROBE_S / mean_probe(passes) if scaled else 1.0


def end_to_end(timed: dict, commands: list[str], scaled: bool) -> dict:
    """Medians over set-ups and passes, each phase scaled by its own probes."""
    setups, its = timed["setup"], timed["iterations"]
    scale = phase_scale(its, scaled)
    return {
        "setup_s": phase_scale(setups, scaled)
        * _median([_walls(s, SETUP) for s in setups]),
        "detect_s": scale * _median([_walls(it, DETECT) for it in its]),
        "eval_s": scale * _median([_walls(it, ("eval",)) for it in its]),
        "total_s": scale * _median([_walls(it, commands) for it in its]),
        "cpu_s": scale * _median([sum(c["cpu_s"] for c in it) for it in its]),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


class Spans:
    """Span table of a traced pass, with per-name aggregates."""

    def __init__(self, path: Path):
        self.rows = [json.loads(line) for line in path.read_text().splitlines()]
        self.child_time = defaultdict(float)
        self.by_name = defaultdict(list)
        for r in self.rows:
            r["dur"] = r["end"] - r["start"]
            self.by_name[r["name"]].append(r)
            if r["parent"] >= 0:
                self.child_time[r["parent"]] += r["dur"]
        # modules of the strict ancestors of each span; spans are in start
        # order, so a parent always precedes its children
        self._above: list[frozenset] = []
        for r in self.rows:
            p = r["parent"]
            self._above.append(frozenset() if p < 0 else
                               self._above[p] | {self.rows[p]["name"].split(".")[0]})

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def durations(self, name: str) -> list[float]:
        return sorted(r["dur"] for r in self.by_name[name])

    def busy(self, name: str) -> float:
        return sum(r["dur"] for r in self.by_name[name])

    def self_time(self, name: str) -> float:
        return sum(r["dur"] - self.child_time[r["id"]] for r in self.by_name[name])

    def module_busy(self, module: str) -> float:
        """Time inside ``module``, counting nested spans of it once."""
        return sum(r["dur"] for r in self.rows
                   if r["name"].split(".")[0] == module
                   and module not in self._above[r["id"]])

    def p50_ms(self, name: str) -> float:
        return 1000.0 * _median(self.durations(name))

    def tail_ms(self, name: str) -> float:
        """The highest percentile with at least 10 samples beyond it (the
        maximum below 11 samples)."""
        d = self.durations(name)
        if not d:
            return 0.0
        return 1000.0 * (d[-11] if len(d) >= 11 else d[-1])


def per_layer(spans: Spans, counts: dict, timed: dict, traced: dict,
              work: Path, threads: int) -> dict:
    m: dict = {}
    for stage in SETUP + DETECT:
        m[f"pipeline.{stage}.wall_s"] = spans.busy(f"cli.{stage}")
    m["pipeline.noop_rerun_ms"] = spans.p50_ms("cli.pipeline")
    its = timed["iterations"]
    for command in ("explain", "ablate"):
        m[f"{command}_s"] = phase_scale(its, threads == 1) * _median(
            [_walls(it, (command,)) for it in its])
    for name in ("cohorts.generate_scan", "encoder.toy_encode", "ovf.read_ovf",
                 "ovf.write_ovf", "manifest.load_manifest",
                 "regions.deep_feature_vector", "radiomics.radiomics_lite",
                 "scores.scan_score", "forest.fit_forest", "forest.fit_tree",
                 "forest.predict_proba_batch", "selection.rfe",
                 "protocol.repeated_split_eval", "treeshap.tree_shap"):
        m[f"{name}.calls"] = spans.calls(name)
        m[f"{name}.busy_s"] = spans.busy(name)
    for name in ("protocol.split_cohort", "metrics.auroc", "metrics.fpr_at_tpr"):
        m[f"{name}.calls"] = spans.calls(name)
    for name in ("regions.tumor_crops", "tables.read_feature_table",
                 "tables.write_feature_table"):
        m[f"{name}.busy_s"] = spans.busy(name)
    for name in ("forest.fit_forest", "protocol.repeated_split_eval"):
        m[f"{name}.self_s"] = spans.self_time(name)
    for name in ("regions.deep_feature_vector", "forest.fit_tree",
                 "treeshap.tree_shap"):
        m[f"{name}.p50_ms"] = spans.p50_ms(name)
    for name in ("forest.fit_tree", "treeshap.tree_shap"):
        m[f"{name}.tail_ms"] = spans.tail_ms(name)
    m["metrics.busy_s"] = spans.module_busy("metrics")
    m["report.busy_s"] = spans.module_busy("report")
    for key in ("ovf.read_ovf.bytes", "ovf.write_ovf.bytes", "tables.bytes",
                "manifest.load_manifest.validated_calls", "scores.fallback_scans",
                "forest.predict_proba_batch.rows", "forest.nodes",
                "forest.leaves_at_max_depth"):
        m[key] = counts.get(key, 0)
    trees = max(1, m["forest.fit_tree.calls"])
    m["forest.depth_mean"] = counts.get("forest.depth_sum", 0) / trees
    m["forest.leaves_mean"] = counts.get("forest.leaves", 0) / trees

    eval_util = [c["cpu_s"] / (c["wall_s"] * threads)
                 for it in its for c in it if c["command"] == "eval"]
    m["parallel.eval_cpu_util"] = _median(eval_util)
    # both passes in reference seconds, each scaled by its own probes, so
    # that the machine's drift between the passes drops out
    timed_detect = phase_scale(its, True) * _median(
        [_walls(it, DETECT) for it in its])
    traced_detect = phase_scale([traced["calls"]], True) * _walls(
        traced["calls"], DETECT)
    m["trace_overhead_pct"] = 100.0 * (traced_detect - timed_detect) / timed_detect

    # RF-Deep quality: mean over seeds and OOD cohorts, and its spread
    # across seeds (population std of the per-seed means over cohorts)
    rf_deep = [v for (method, _), v in per_seed_table(work).items()
               if method == "RF-Deep"]
    seed_means = [statistics.fmean(a for a, _ in seed) for seed in zip(*rf_deep)]
    m["detector.auroc_rf_deep_pct"] = statistics.fmean(seed_means)
    m["detector.auroc_rf_deep_seed_std"] = statistics.pstdev(seed_means)
    m["detector.fpr95_rf_deep_pct"] = statistics.fmean(
        f for v in rf_deep for _, f in v)
    lines = (work / "features_deep.csv").read_text().splitlines()
    col = lines[0].split(",").index("empty_mask")
    m["detector.empty_mask_rows"] = sum(float(r.split(",")[col]) != 0.0
                                        for r in lines[1:])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat the timed commands while one more pass "
                             "still ends within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "oodscan" / "__init__.py").is_file():
        print(f"error: no oodscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S

    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed)
    extra = [list(c) for c in wl.extra]
    commands = [c[0] for c in wl.commands()]
    exp = Expected(cfg, extra)
    names = artifacts(extra)

    run_dir = ROOT / ".perfbench_runs" / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=1))
    timed_work, traced_work = run_dir / "timed", run_dir / "traced"
    info = {"workload": wl.name, "why": wl.why, "seed": args.seed,
            "threads": wl.threads, "trace": args.trace,
            "machine": machine()}
    ops = Ops()
    metrics: dict = {}
    try:
        job = {"config": str(run_dir / "config.json"), "threads": wl.threads,
               "commands": [list(c) for c in wl.commands()]}
        timed = run_child(dict(job, mode="timed", workdir=str(timed_work),
                               setup_repeats=1 if args.trace else SETUP_REPEATS,
                               seconds=args.seconds,
                               out=str(run_dir / "timed.json")),
                          run_dir, deadline)
        ops.calls([c for s in timed["setup"] for c in s], "timed")
        ops.calls([c for it in timed["iterations"] for c in it], "timed")
        digests = {n: sha256(timed_work / n) for n in names
                   if (timed_work / n).is_file()}
        info["digests"] = digests
        # digests are pinned for a few seeds per workload; other seeds get
        # the invariants, and at --trace 1 the traced-vs-timed byte check
        golden = json.loads((HERE / "golden.json").read_text())[wl.name]
        golden = golden.get(str(args.seed))
        if golden is not None:
            for n in names:
                ops.record(digests.get(n) == golden.get(n), f"golden digest {n}")
        for name, fn in invariant_checks(timed_work, exp).items():
            ops.check(name, fn)

        if args.trace:
            traced = run_child(dict(job, mode="traced", threads=1,
                                    workdir=str(traced_work),
                                    spans=str(run_dir / "spans.jsonl"),
                                    counts=str(run_dir / "counts.json"),
                                    out=str(run_dir / "traced.json")),
                               run_dir, deadline)
            ops.calls(traced["calls"], "traced")
            for n in names:
                same = (traced_work / n).is_file() and \
                    sha256(traced_work / n) == digests.get(n)
                ops.record(same, f"traced bytes equal timed bytes {n}")
            spans = Spans(run_dir / "spans.jsonl")
            width = len((timed_work / "features_radiomics.csv").read_text()
                        .split("\n", 1)[0].split(",")) - 3
            for name, want in expected_calls(exp, width).items():
                got = spans.calls(name)
                ops.record(got == want, f"{name} calls {got} (expected {want})")
            counts = json.loads((run_dir / "counts.json").read_text())
            metrics = per_layer(spans, counts, timed, traced, timed_work,
                                wl.threads)
        else:
            metrics = end_to_end(timed, commands, scaled=wl.threads == 1)
        raw = end_to_end(timed, commands, scaled=False)
        for name in ("setup_s", "detect_s", "eval_s", "total_s", "cpu_s"):
            metrics[f"raw.{name}"] = raw[name]
        metrics["probe_ms"] = 1000.0 * mean_probe(timed["setup"] + timed["iterations"])
    except Exception as exc:  # report the failed pass, then the result line
        traceback.print_exc()
        ops.record(False, f"benchmark pass: {exc!r}")
    finally:
        shutil.rmtree(timed_work, ignore_errors=True)
        shutil.rmtree(traced_work, ignore_errors=True)

    failed = len(ops.failures)
    metrics["error_rate"] = failed / max(1, ops.attempted)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a failed pass may leave metrics unmeasured; a clean one must have all
    out = {m["name"]: {"value": metrics[m["name"]] if not failed
                       else metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in wanted}
    result = {"correct": failed == 0, "attempted": max(1, ops.attempted),
              "failed": failed, "metrics": out}
    (run_dir / "result.json").write_text(json.dumps(
        dict(info, failures=ops.failures, all_metrics=metrics, result=result),
        indent=1, sort_keys=True))
    print("machine " + json.dumps(info["machine"], sort_keys=True))
    for name, v in out.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
