"""The committed baselines and the script that compares against them.

``benchmarks/check_regression.py`` reads fixed paths out of the
committed ``BENCH_*.json`` files; a path that no longer resolves fails
the comparison with a ``KeyError`` instead of a report.  The baselines
must also come from one commit on one machine, or their numbers cannot
be read against each other.
"""

import importlib.util
import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracked_metric_resolves_to_a_number():
    script = load_script()
    for name, path, _kind in script.METRICS:
        doc = json.loads((ROOT / name).read_text())
        value = script._get(doc, path)
        assert isinstance(value, (int, float)) and not isinstance(value, bool), \
            (name, path, value)
        assert math.isfinite(value), (name, path, value)


def test_baselines_come_from_one_commit_on_one_machine():
    docs = [json.loads(p.read_text()) for p in sorted(ROOT.glob("BENCH_*.json"))]
    assert len(docs) == 5
    environments = [doc["environment"] for doc in docs]
    assert len({env["git_sha"] for env in environments}) == 1
    assert len({env["cpu_count"] for env in environments}) == 1


def test_baselines_compare_clean_against_themselves(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert load_script().main([".", "."]) == 0
    assert "all compared benchmark metrics within threshold" in \
        capsys.readouterr().out
