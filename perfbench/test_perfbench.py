"""Self-test of the benchmark on the toy-size ``smoke`` workload.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Expected  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, key):
    rc, result, proc = run_bench("--trace", trace)
    assert rc == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if key == "end_to_end":
        assert all(v > 0 for v in values)


def test_flipped_byte_raises_error_rate(monkeypatch, capsys):
    import run

    real = run.run_child

    def flip_one_byte(job, run_dir, deadline):
        out = real(job, run_dir, deadline)
        if job["mode"] == "timed":
            path = Path(job["workdir"]) / "per_seed.csv"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        return out

    monkeypatch.setattr(run, "run_child", flip_one_byte)
    rc = run.main(["--workload", "smoke", "--seed", "0", "--seconds", "1",
                   "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["error_rate"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = run_bench("--trace", "0", cwd=tmp_path)
    assert rc != 0 and result is None


def test_rfe_rounds_follow_the_protocol_step_rule():
    exp = Expected({"cohorts": [], "forest": {"n_trees": 1},
                    "protocol": {"n_seeds": 1}, "rfe_target": 16}, [])
    assert exp.rfe_rounds(27) == 6  # step 2: 27 25 23 21 19 17 16
    assert exp.rfe_rounds(16) == 0
