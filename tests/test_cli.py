import argparse
import csv
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodscan import pipeline, tables
from oodscan.cli import build_parser, main
from oodscan.config import load_config, parse_config
from oodscan.encoder import ToyEncoderConfig, toy_encode
from oodscan.manifest import load_manifest
from oodscan.ovf import read_ovf, write_ovf
from oodscan.volumes import Grid


def write_config(directory: Path, **overrides) -> Path:
    doc = {
        "work_dir": "work",
        "cohorts": [
            {
                "cohort_name": "lung", "cohort_label": "ID", "n_scans": 4,
                "seed": 21, "dims": [16, 16, 16], "blob_count": [1, 2],
                "blob_radius": [2.0, 3.0],
            },
            {
                "cohort_name": "kidney", "cohort_label": "OOD", "n_scans": 4,
                "seed": 22, "dims": [16, 16, 16], "blob_count": [3, 4],
                "blob_radius": [2.0, 3.0], "background_mean": 0.5,
                "texture_mean": 0.1, "logit_miscalibration": 2.0,
            },
        ],
        "encoder": {"patch_size": 2, "widths": [4, 4, 8, 8, 8], "seed": 5},
        "crops": {"count": 2, "size": [8, 8, 8], "jitter_radius": 1},
        "forest": {"n_trees": 6, "max_depth": 5},
        "protocol": {"train_frac": 0.4, "n_seeds": 2, "base_seed": 77},
    }
    doc.update(overrides)
    p = directory / "config.json"
    p.write_text(json.dumps(doc, indent=2))
    return p


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_full_pipeline_and_idempotence(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "ran: gen encode extract score train eval report" in out

    work = tmp_path / "work"
    for name in ("manifest.json", "features_deep.csv", "features_radiomics.csv",
                 "scores.csv", "rf_deep.model.json", "per_seed.csv",
                 "summary.csv", "summary.txt"):
        assert (work / name).is_file(), name

    summary_before = (work / "summary.csv").read_bytes()
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "skipped (up to date): gen encode extract score train eval report" in out
    assert (work / "summary.csv").read_bytes() == summary_before

    rows = read_rows(work / "summary.csv")
    methods = [r[0] for r in rows[1:]]
    assert methods == ["MaxSoftmax", "MaxLogits", "Energy", "Entropy",
                       "RF-Radiomics", "RF-Deep"]
    assert rows[0][1:] == ["kidney_auroc_mean", "kidney_auroc_std",
                           "kidney_fpr95_mean", "kidney_fpr95_std"]


def test_corrupt_ovf_fails_in_extract_naming_scan(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["encode", "--config", str(cfg_path)]) == 0
    victim = tmp_path / "work" / "kidney_0002_mask.ovf"
    raw = bytearray(victim.read_bytes())
    raw[0] ^= 0xFF
    victim.write_bytes(bytes(raw))

    code = main(["pipeline", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "stage=extract" in err
    assert "kidney_0002" in err


def test_wrong_shaped_pyramid_stage_fails_in_extract_naming_scan(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["encode", "--config", str(cfg_path)]) == 0
    # a well-formed OVF with SB1's spacing but a 3^3 grid instead of 4^3
    header = b"OVF1" + bytes(4) + struct.pack("<BB4x4I3f", 1, 4, 4, 3, 3, 3, 4.0, 4.0, 4.0)
    victim = tmp_path / "work" / "kidney_0002_p1.ovf"
    victim.write_bytes(header + bytes(4 * 4 * 27))

    code = main(["extract", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "stage=extract" in err
    assert "kidney_0002" in err
    assert "SB1" in err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    assert main(["pipeline", "--config", str(write_config(root))]) == 0
    return root


def _edit_field(line_no: int, field: int, value: str | None):
    """Set (or, with None, drop) one field of one CSV line."""
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        fields = lines[line_no].rstrip("\n").split(",")
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        lines[line_no] = ",".join(fields) + "\n"
        return "".join(lines)
    return edit


def _drop_trees(text: str) -> str:
    doc = json.loads(text)
    del doc["trees"]
    return json.dumps(doc)


def _rename_first_feature(text: str) -> str:
    doc = json.loads(text)
    doc["feature_names"][0] = "other"
    return json.dumps(doc)


def _drop_seed_0(text: str) -> str:
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("0,"))


def _seed_1_to_minus_1(text: str) -> str:
    return text.replace("\n1,", "\n-1,")


def _drop_seed_1(text: str) -> str:
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("1,"))


def _duplicate_rf_deep_row(text: str) -> str:
    return text + "0,RF-Deep,kidney,12.5,50.0\n"


def _append_copy(line_no: int, value: str | None = None):
    """Append a copy of one CSV line, with its fourth field set to ``value``
    unless that is None."""
    def edit(text: str) -> str:
        fields = text.splitlines()[line_no].split(",")
        if value is not None:
            fields[3] = value
        return text + ",".join(fields) + "\n"
    return edit


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _drop_scan(scan_id: str):
    """Drop every CSV line of one scan."""
    def edit(text: str) -> str:
        return "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith(f"{scan_id},"))
    return edit


def _relabel_ood_as_id(text: str) -> str:
    return text.replace(",OOD,", ",ID,")


def _raw_byte(offset: int | None, byte: int):
    """Replace the character at ``offset`` (with None, append one) by ``byte``,
    which is not UTF-8 on its own, as a surrogate that writing the text with
    errors="surrogateescape" turns into that byte."""
    def edit(text: str) -> str:
        raw = chr(0xDC00 + byte)
        return text + raw if offset is None else text[:offset] + raw + text[offset + 1:]
    return edit


def _edit_manifest(edit):
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc, doc["records"][0])
        return json.dumps(doc)
    return corrupt


@pytest.mark.parametrize("command, name, corrupt", [
    pytest.param("explain", "rf_deep.model.json", _drop_trees, id="model-without-trees"),
    pytest.param("explain", "rf_deep.model.json", _rename_first_feature,
                 id="model-of-other-columns"),
    pytest.param("report", "per_seed.csv", _drop_seed_0, id="per-seed-missing-seed"),
    pytest.param("report", "per_seed.csv", _seed_1_to_minus_1, id="per-seed-negative-seed"),
    pytest.param("report", "per_seed.csv", _drop_seed_1, id="per-seed-other-seed-count"),
    pytest.param("report", "per_seed.csv", _duplicate_rf_deep_row, id="per-seed-duplicate-row"),
    pytest.param("report", "per_seed.csv", _edit_field(1, 3, "nan"), id="per-seed-nan"),
    pytest.param("report", "per_seed.csv", _edit_field(1, 1, "RF-Other"),
                 id="per-seed-unknown-method"),
    pytest.param("eval", "scores.csv", _edit_field(1, 3, "nan"), id="scores-nan"),
    pytest.param("eval", "scores.csv", _append_copy(1, "123.0"), id="scores-duplicate-row"),
    pytest.param("eval", "scores.csv", _drop_scan("lung_0003"), id="scores-missing-scan"),
    pytest.param("eval", "features_deep.csv", _append_copy(1), id="features-duplicate-row"),
    pytest.param("eval", "features_deep.csv", _drop_last_line, id="features-scan-short-a-crop"),
    pytest.param("train", "features_deep.csv", _edit_field(2, 5, "nan"), id="features-nan"),
    pytest.param("train", "features_deep.csv", _edit_field(2, -1, None),
                 id="features-short-row"),
    pytest.param("train", "features_deep.csv", _edit_field(2, 5, "0x1p3"),
                 id="features-non-numeric"),
    pytest.param("train", "features_deep.csv", _drop_scan("lung_0003"),
                 id="features-missing-scan"),
    pytest.param("train", "features_deep.csv", _relabel_ood_as_id, id="train-labels-off-manifest"),
    pytest.param("eval", "features_deep.csv", _relabel_ood_as_id, id="eval-labels-off-manifest"),
    pytest.param("ablate", "features_deep.csv", _relabel_ood_as_id,
                 id="ablate-labels-off-manifest"),
    pytest.param("explain", "features_deep.csv", _relabel_ood_as_id,
                 id="explain-labels-off-manifest"),
    pytest.param("explain", "rf_deep.model.json", _raw_byte(100, 0xBA), id="model-not-utf8"),
    pytest.param("train", "manifest.json", _raw_byte(None, 0xFF), id="manifest-not-utf8"),
    pytest.param("encode", "manifest.json", _edit_manifest(lambda doc, rec: doc.update(records=3)),
                 id="manifest-records-not-a-list"),
    pytest.param("encode", "manifest.json",
                 _edit_manifest(lambda doc, rec: doc.update(records=[3])),
                 id="manifest-record-not-an-object"),
    pytest.param("encode", "manifest.json", _edit_manifest(lambda doc, rec: rec.update(pyramid=3)),
                 id="manifest-pyramid-not-a-list"),
    pytest.param("encode", "manifest.json", _edit_manifest(lambda doc, rec: rec.update(volume=3)),
                 id="manifest-volume-not-a-string"),
    pytest.param("encode", "manifest.json",
                 _edit_manifest(lambda doc, rec: rec["pyramid"].__setitem__(0, 1)),
                 id="manifest-pyramid-entry-not-a-string"),
    pytest.param("encode", "manifest.json",
                 _edit_manifest(lambda doc, rec: rec.update(cohort_name=3)),
                 id="manifest-cohort-name-not-a-string"),
])
def test_malformed_artifact_is_data_error_naming_file(finished_run, tmp_path, capsys,
                                                      command, name, corrupt):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    victim = run / "work" / name
    victim.write_text(corrupt(victim.read_text()), errors="surrogateescape")

    code = main([command, "--config", str(run / "config.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"stage={command}" in err
    assert name in err
    assert err.splitlines()[-1].startswith(f"error stage={command} DataError: ")


def _edit_model(edit):
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


def _first(doc, key: str) -> dict:
    """The first node in preorder over the trees that has ``key``: "feature"
    for a split, "leaf" for a leaf."""
    stack = list(reversed(doc["trees"]))
    while key not in stack[-1]:
        node = stack.pop()
        if "feature" in node:
            stack += [node["right"], node["left"]]
    return stack[-1]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: _first(doc, "feature").update(feature=9999), id="feature-too-large"),
    pytest.param(lambda doc: _first(doc, "feature").update(feature=-3), id="feature-negative"),
    pytest.param(lambda doc: _first(doc, "feature").update(threshold="0.5"),
                 id="threshold-string"),
    pytest.param(lambda doc: _first(doc, "feature").update(threshold=float("nan")),
                 id="threshold-nan"),
    pytest.param(lambda doc: _first(doc, "leaf").update(leaf=[1.0]), id="leaf-of-one"),
    pytest.param(lambda doc: _first(doc, "feature").pop("cover"), id="split-without-cover"),
    pytest.param(lambda doc: _first(doc, "feature").update(cover=0.0), id="split-cover-zero"),
    pytest.param(lambda doc: _first(doc, "leaf").update(cover=-1.0), id="leaf-cover-negative"),
    pytest.param(lambda doc: doc.update(trees=[]), id="no-trees"),
    pytest.param(lambda doc: doc["feature_names"].pop(), id="names-short"),
])
def test_malformed_model_is_data_error_naming_file(finished_run, tmp_path, capsys, edit):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    victim = run / "work" / "rf_deep.model.json"
    victim.write_text(_edit_model(edit)(victim.read_text()))

    code = main(["explain", "--config", str(run / "config.json")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.splitlines()[-1].startswith("error stage=explain DataError: ")
    assert "rf_deep.model.json" in err


def _sb4_with_16_channels(work: Path) -> None:
    # a valid SB4 stage with 16 channels where every other scan has 8
    victim = work / "kidney_0002_p4.ovf"
    sb4 = read_ovf(victim)
    write_ovf(Grid(np.zeros((16, *sb4.dims), dtype=np.float32), sb4.spacing), victim)


def _pyramid_of_24_cube(work: Path) -> None:
    # five mutually consistent stage files, but of a 24^3 volume, not 16^3
    other = toy_encode(Grid(np.zeros((24, 24, 24), dtype=np.float32)),
                       ToyEncoderConfig(patch_size=2, widths=(4, 4, 8, 8, 8)))
    for i, stage in enumerate(other.stages):
        write_ovf(stage, work / f"kidney_0002_p{i}.ovf")


@pytest.mark.parametrize("corrupt, named", [
    pytest.param(_sb4_with_16_channels, ("kidney_0002",), id="other-channel-count"),
    pytest.param(_pyramid_of_24_cube, ("kidney_0002", "PE"), id="other-volume-size"),
])
def test_mismatched_pyramid_fails_in_extract_naming_scan(finished_run, tmp_path, capsys,
                                                         corrupt, named):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    corrupt(run / "work")

    code = main(["extract", "--config", str(run / "config.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "stage=extract" in err
    for text in named:
        assert text in err


def _config(**overrides):
    def change(run: Path) -> list[str]:
        write_config(run, **overrides)
        return []
    return change


def _zero_kidney_0002_p0(run: Path) -> list[str]:
    # a valid stand-in, as a real encoder export would be
    victim = run / "work" / "kidney_0002_p0.ovf"
    p0 = read_ovf(victim)
    write_ovf(Grid(np.zeros_like(p0.data), p0.spacing), victim)
    return []


@pytest.mark.parametrize("change, ran", [
    pytest.param(lambda run: [], "", id="unchanged"),
    pytest.param(_zero_kidney_0002_p0, "extract train eval report", id="pyramid-file"),
    pytest.param(_config(temperature=2.0), "score eval report", id="temperature"),
    pytest.param(_config(protocol={"train_frac": 0.4, "n_seeds": 3, "base_seed": 77}),
                 "eval report", id="n-seeds"),
    pytest.param(_config(encoder={"patch_size": 2, "widths": [4, 4, 8, 8, 8], "seed": 6}),
                 "encode extract train eval report", id="encoder-seed"),
    pytest.param(lambda run: ["--seed", "123"], "extract train eval report", id="seed-flag"),
    pytest.param(_config(ablate_stages=["SB2"]), "", id="ablate-stages"),
])
def test_pipeline_reruns_exactly_the_stages_whose_inputs_changed(finished_run, tmp_path,
                                                                 capsys, change, ran):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    deep = run / "work" / "features_deep.csv"
    deep_before = deep.read_bytes()
    extra = change(run)
    capsys.readouterr()

    assert main(["pipeline", "--config", str(run / "config.json"), *extra]) == 0
    status = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith(("ran:", "skipped"))]
    skipped = " ".join(s for s in pipeline.PIPELINE_STAGES if s not in ran.split())
    assert status == [f"ran: {ran}"] * bool(ran) + \
        [f"skipped (up to date): {skipped}"] * bool(skipped)
    assert (deep.read_bytes() != deep_before) == ("extract" in ran)


def test_stage_that_fails_midway_is_not_fresh(finished_run, tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    config = str(run / "config.json")
    scores = run / "work" / "scores.csv"
    scores_before = scores.read_bytes()

    def truncate_then_fail(rows, path):
        Path(path).write_text("")
        raise RuntimeError("disk full")

    monkeypatch.setattr(pipeline, "write_scores_csv", truncate_then_fail)
    assert main(["score", "--config", config]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error stage=score RuntimeError: disk full"
    monkeypatch.undo()

    assert main(["pipeline", "--config", config]) == 0
    assert "ran: score eval report\n" in capsys.readouterr().out
    assert scores.read_bytes() == scores_before


def test_noop_pipeline_parses_the_manifest_once(finished_run, tmp_path, capsys,
                                                monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    calls = []
    monkeypatch.setattr(pipeline, "load_manifest",
                        lambda path: calls.append(path) or load_manifest(path))
    assert main(["pipeline", "--config", str(run / "config.json")]) == 0
    assert "ran:" not in capsys.readouterr().out
    assert len(calls) == 1


def test_failed_write_keeps_the_previous_artifact(finished_run, tmp_path, capsys,
                                                  monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    scores = run / "work" / "scores.csv"
    scores_before = scores.read_bytes()
    written = []

    def fail_on_fifth(value):
        written.append(value)
        if len(written) == 5:
            raise RuntimeError("disk full")
        return repr(float(value))

    monkeypatch.setattr(tables, "format_float", fail_on_fifth)
    assert main(["score", "--config", str(run / "config.json")]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error stage=score RuntimeError: disk full"
    assert scores.read_bytes() == scores_before
    assert not scores.with_name("scores.csv.tmp").exists()


def _tree(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


BAD_STEMS = ["../outside", "sub/dir", "back\\slash", "nul\0", ".hidden", ""]


@pytest.mark.parametrize("source", ["config", "cohorts"])
@pytest.mark.parametrize("name", BAD_STEMS)
def test_cohort_name_outside_the_work_dir_exits_2_before_writing(tmp_path, capsys,
                                                                 source, name):
    cohort = {"cohort_name": name, "cohort_label": "ID", "n_scans": 2, "seed": 9,
              "dims": [16, 16, 16], "blob_radius": [2.0, 3.0]}
    cfg_path = write_config(tmp_path, cohorts=[cohort] if source == "config" else [])
    argv = ["gen", "--config", str(cfg_path)]
    if source == "cohorts":
        (tmp_path / "cohorts.json").write_text(json.dumps([cohort]))
        argv += ["--cohorts", str(tmp_path / "cohorts.json")]
    before = _tree(tmp_path)  # "../outside" would land in tmp_path itself
    assert main(argv) == 2
    assert f"cohort {name!r}: a cohort_name must be a plain file-name stem" in \
        capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("scan_id", BAD_STEMS[:-1])
def test_scan_id_outside_the_work_dir_exits_3_before_writing(finished_run, tmp_path,
                                                             capsys, scan_id):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    manifest = run / "work" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["records"][0]["scan_id"] = scan_id
    manifest.write_text(json.dumps(doc))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["encode", "--config", str(run / "config.json")]) == 3
    err = capsys.readouterr().err
    assert f"scan {scan_id!r}: a scan_id must be a plain file-name stem" in err
    assert err.splitlines()[-1].startswith("error stage=encode DataError: ")
    # only encode's stamp is gone: a failed stage is left unstamped
    del before[run / "work" / ".stamps" / "encode.json"]
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_text_artifacts_never_fall_back_to_the_locale_encoding(tmp_path):
    # every text open names its encoding: with -X warn_default_encoding one
    # that does not warns, and the warning is an error
    cfg_path = write_config(tmp_path)
    script = ("import sys; from oodscan.cli import main; "
              "sys.exit(max(main([c, '--config', sys.argv[1]]) for c in "
              "('pipeline', 'pipeline', 'report')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pipeline.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W",
                           "error::EncodingWarning", "-c", script, str(cfg_path)],
                          env=env, capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert "skipped (up to date): gen encode extract score train eval report" in proc.stdout


def test_subcommands_are_the_stage_table_plus_three():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [*(s.name for s in pipeline.STAGES),
                                 "ablate", "explain", "pipeline"]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad)]) == 2

    cfg = write_config(tmp_path, forest={"n_trees": 6, "bogus_key": 1})
    assert main(["gen", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("score", {"temperature": "hot"}),
    ("score", {"temperature": None}),
    ("eval", {"rfe_target": "x"}),
    ("eval", {"rfe_step": [1]}),
    ("gen", {"threads": "two"}),
    ("ablate", {"ablate_stages": 3}),
    ("ablate", {"ablate_stages": []}),
    ("train", {"forest": {"n_trees": 2.5}}),
    ("eval", {"protocol": {"n_seeds": 1.5}}),
    pytest.param("gen", _raw_byte(17, 0xFF), id="gen-not-utf8"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_malformed_config_value_exits_2(tmp_path, capsys, command, overrides):
    """``overrides`` are config values, or an edit of the config's text."""
    if callable(overrides):
        cfg = write_config(tmp_path)
        cfg.write_text(overrides(cfg.read_text()), errors="surrogateescape")
    else:
        cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error stage=config ConfigError: ")


COHORT = {"cohort_name": "lung", "cohort_label": "ID", "n_scans": 4, "seed": 21,
          "blob_radius": [2.0, 3.0]}


@pytest.mark.parametrize("command, overrides", [
    ("extract", {"crops": {"size": [8.5, 8, 8]}}),
    ("gen", {"cohorts": [dict(COHORT, dims=[16.5, 16, 16])]}),
    ("gen", {"cohorts": [dict(COHORT, dims=[16, 16])]}),
    ("gen", {"cohorts": [dict(COHORT, blob_count=[1, 2.5])]}),
    ("gen", {"cohorts": [dict(COHORT, spacing=["a", 1, 1])]}),
    ("encode", {"encoder": {"widths": [4, 4, 8, 8, 8.5]}}),
    ("train", {"forest": {"n_trees": 6, "max_features": 2.5}}),
    ("train", {"forest": {"n_trees": 6, "max_features": True}}),
    ("gen", {"work_dir": 3}),
    ("gen", {"cohorts": [dict(COHORT, texture_mean=True)]}),
    ("gen", {"cohorts": [dict(COHORT, logit_miscalibration=True)]}),
    ("gen", {"cohorts": {}}),
    ("eval", {"protocol": []}),
    ("ablate", {"ablate_stages": "PE"}),
    ("train", {"forest": {"n_trees": 0}}),
    ("train", {"forest": {"max_features": "abc"}}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_malformed_list_or_path_config_value_exits_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error stage=config ConfigError: ")


@pytest.mark.parametrize("specs", [[3], {}, [{"cohort_name": "lung"}], [dict(COHORT, seed=True)]],
                         ids=json.dumps)
def test_malformed_cohorts_file_exits_2(tmp_path, capsys, specs):
    (tmp_path / "cohorts.json").write_text(json.dumps(specs))
    argv = ["gen", "--config", str(write_config(tmp_path)),
            "--cohorts", str(tmp_path / "cohorts.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error stage=config ConfigError: ")
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("command, overrides, width, table, untouched", [
    # 33 deep columns: 32 pooled channels and the fallback flag
    ("train", {"max_features": 64}, 33, "features_deep.csv", "rf_deep.model.json"),
    ("train", {"max_features": "64"}, 33, "features_deep.csv", "rf_deep.model.json"),
    ("eval", {"max_features": 20, "rfe_target": 16}, 16,
     "features_radiomics.csv after rfe_target 16", "per_seed.csv"),
    ("ablate", {"max_features": 5}, 4, "stage PE of", "ablation.csv"),
], ids=["train", "train-string-count", "eval-after-rfe", "ablate-stage"])
def test_max_features_wider_than_a_table_exits_2(finished_run, tmp_path, capsys, command,
                                                 overrides, width, table, untouched):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    forest = {"n_trees": 6, "max_depth": 5, "max_features": overrides.pop("max_features")}
    cfg = write_config(run, forest=forest, **overrides)
    artifact = run / "work" / untouched
    before = artifact.read_bytes() if artifact.exists() else None

    assert main([command, "--config", str(cfg)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error stage={command} ConfigError: forest.max_features "
                           f"{forest['max_features']} exceeds the {width} columns of ")
    assert table in last
    # refused before any fit: nothing was written
    assert (artifact.read_bytes() if artifact.exists() else None) == before


def test_max_features_as_a_numeric_string_still_fits(finished_run, tmp_path):
    # RFParams takes any count that int() reads, and the width check reads it so
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    cfg = write_config(run, forest={"n_trees": 6, "max_depth": 5, "max_features": "4"})
    for command in ("train", "eval", "ablate"):  # stage PE has exactly 4 columns
        assert main([command, "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command, overrides, message, untouched", [
    ("extract", {"crops": {"count": 2, "size": [64, 64, 64], "jitter_radius": 1}},
     "crops.size [64, 64, 64] exceeds the dims [16, 16, 16] of scan ", "features_deep.csv"),
    ("encode", {"encoder": {"patch_size": 3, "widths": [4, 4, 8, 8, 8], "seed": 5}},
     "encoder.patch_size 3 does not divide the dims [16, 16, 16] of scan ", "manifest.json"),
], ids=["crops.size", "encoder.patch_size"])
def test_config_that_does_not_fit_the_scans_exits_2(finished_run, tmp_path, capsys, command,
                                                    overrides, message, untouched):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    artifact = run / "work" / untouched
    before = artifact.read_bytes()
    assert main([command, "--config", str(write_config(run, **overrides))]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error stage={command} ConfigError: {message}")
    assert artifact.read_bytes() == before


def test_negative_explain_limit_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["explain", "--config", str(cfg_path), "--limit", "-3"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error stage=config ConfigError: ")
    assert not (tmp_path / "work" / "shap_deep.csv").exists()


def test_config_hash_semantics(tmp_path):
    cfg_path = write_config(tmp_path)
    base = load_config(cfg_path).config_hash()
    assert base == "54012f0457fc6cac4850a7a1ca9a6f791e9e5881612cc517217843f3c9e57657"

    # reordering keys and reformatting whitespace changes nothing
    doc = json.loads(cfg_path.read_text())
    reordered = {k: doc[k] for k in reversed(list(doc))}
    cfg_path.write_text(json.dumps(reordered, indent=7))
    assert load_config(cfg_path).config_hash() == base

    # a semantic change does
    doc["protocol"]["n_seeds"] = 3
    cfg_path.write_text(json.dumps(doc))
    assert load_config(cfg_path).config_hash() != base

    # thread count and work_dir are runtime/location, not semantics
    doc["protocol"]["n_seeds"] = 2
    doc["threads"] = 8
    doc["work_dir"] = "elsewhere"
    cfg_path.write_text(json.dumps(doc))
    assert load_config(cfg_path).config_hash() == base


def test_config_hash_keeps_integers_written_into_float_fields(tmp_path):
    # a reader that made 1 into 1.0 would change these hashes, the provenance
    # bytes in manifest.json, and re-run every stage of such a work dir
    cfg_path = write_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["cohorts"][0].update(spacing=[1, 1, 1], background_std=0)
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    assert cfg.config_hash() == \
        "32e3eb64ead6fa05f2e05b2a4d7807eab3c4f9a82f8d2fda0c3a1e2a9fcf2d59"
    assert {s.name: cfg.config_hash(s.config) for s in pipeline.STAGES} == {
        "gen": "8f75c0266f82c7a3a971888342e01768c0da986320fd2014e437fac07b74b940",
        "encode": "311b327be50d64a559c7f6760d346fd809a184bda8b23342896dc3e9934a8cda",
        "extract": "f985a95d9f432aa2d504aae9bc0b379641a6fa77428e48a6e315bd3aba5f54a4",
        "score": "d95429fe03f251e4e93e7af38d39fd04bdbe8dcc36af3e6b8c68a9c3c97d6540",
        "train": "acc36db737fc963927c66bf892c6a3c21baf0ac056ca1a840a63e6ec75427dce",
        "eval": "612d8704c56e19d5e1fdd1234fca04d96de2e7692a79a445a2f8ea093505ce95",
        "report": "3ab0d288917bc3dc9af176ea8f31bafc24f43d5106a534632e545dff33e3921d",
    }


def test_config_round_trips_through_its_canonical_dict(tmp_path, monkeypatch):
    # the canonical dict holds every field, so a declared type the reader
    # cannot read back fails here; configs: the default, the acceptance
    # suite's, every benchmark workload's and the README quickstart's
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from test_acceptance import ABLATION_CONFIG, SEPARABILITY_CONFIG
    from workloads import WORKLOADS
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    docs = [{}, SEPARABILITY_CONFIG, ABLATION_CONFIG, quickstart,
            *(w.config(0) for w in WORKLOADS.values())]
    for i, doc in enumerate(docs):
        cfg = parse_config(doc, base_dir=tmp_path)
        back = parse_config(json.loads(json.dumps(cfg.canonical_dict())),
                            workdir_override=cfg.work_dir, threads_override=cfg.threads)
        for f in dataclasses.fields(cfg):
            assert getattr(back, f.name) == getattr(cfg, f.name), (i, f.name)
        assert back.config_hash() == cfg.config_hash(), i


def test_seed_override_changes_eval(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "work" / "per_seed.csv").read_bytes()
    assert main(["pipeline", "--config", str(cfg_path), "--seed", "123"]) == 0
    second = (tmp_path / "work" / "per_seed.csv").read_bytes()
    assert first != second


def test_ablate_emits_five_stage_rows(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    rows = read_rows(tmp_path / "work" / "ablation.csv")
    assert [r[0] for r in rows[1:]] == ["PE", "SB1", "SB2", "SB3", "SB4"]
    assert len(rows) == 6


def test_ablate_honors_stage_filter(tmp_path):
    cfg_path = write_config(tmp_path, ablate_stages=["SB2"])
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    rows = read_rows(tmp_path / "work" / "ablation.csv")
    assert [r[0] for r in rows[1:]] == ["SB2"]

    bad = write_config(tmp_path, ablate_stages=["SB9"])
    assert main(["ablate", "--config", str(bad)]) == 2


def test_explain_attributions_are_efficient(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert main(["explain", "--config", str(cfg_path), "--kind", "deep",
                 "--limit", "3"]) == 0
    rows = read_rows(tmp_path / "work" / "shap_deep.csv")
    assert len(rows) == 4
    header = rows[0]
    assert header[:4] == ["scan_id", "crop_index", "base_value", "prediction"]
    for row in rows[1:]:
        base, pred = float(row[2]), float(row[3])
        phi = sum(float(v) for v in row[4:])
        assert abs(base + phi - pred) <= 1e-9


def test_report_prints_table(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "RF-Deep" in out and "MaxSoftmax" in out and "kidney" in out


def test_gen_accepts_standalone_cohort_file(tmp_path):
    cfg_path = write_config(tmp_path, cohorts=[])
    specs = [{
        "cohort_name": "solo", "cohort_label": "ID", "n_scans": 3,
        "seed": 9, "dims": [16, 16, 16], "blob_radius": [2.0, 3.0],
    }]
    specs_path = tmp_path / "cohorts.json"
    specs_path.write_text(json.dumps(specs))

    assert main(["gen", "--config", str(cfg_path)]) == 3  # config lists none
    assert main(["gen", "--config", str(cfg_path),
                 "--cohorts", str(specs_path)]) == 0
    manifest = json.loads((tmp_path / "work" / "manifest.json").read_text())
    assert [r["scan_id"] for r in manifest["records"]] == \
        ["solo_0000", "solo_0001", "solo_0002"]


def test_relative_config_path_from_other_cwd(tmp_path, monkeypatch):
    # manifest-relative artifact paths must not depend on the process cwd
    write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--config", "config.json"]) == 0
    assert (tmp_path / "work" / "summary.csv").is_file()


def test_workdir_override(tmp_path):
    cfg_path = write_config(tmp_path)
    other = tmp_path / "other_work"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--workdir", str(other)]) == 0
    assert (other / "summary.csv").is_file()
    assert not (tmp_path / "work").exists()
