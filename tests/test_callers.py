"""Code outside the package still finds every name it uses.

The scripts and the benchmark's span recorder look rarebound names up by
attribute, so a deleted or renamed name fails only when they run.  These
tests load them the way they are used, without running them.  The
README's Python examples are run as written.
"""

import dataclasses
import importlib.util
import pathlib
import re
import sys

import pytest

import rarebound
import rarebound.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def load(path, monkeypatch):
    # scripts put src/ on sys.path when imported; keep that local to the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports(path, monkeypatch):
    assert callable(load(path, monkeypatch).main)


def test_benchmark_tracing_installs(monkeypatch):
    tracing = load(ROOT / "perfbench" / "tracing.py", monkeypatch)
    recorder = tracing.Recorder()
    original = rarebound.cli.fsd_fit
    try:
        recorder.install(rarebound)
        assert rarebound.cli.fsd_fit is not original
    finally:
        recorder.uninstall()
    assert rarebound.cli.fsd_fit is original


def test_benchmark_overrides_name_config_keys(monkeypatch):
    # a dataclass accepts setattr of any name, so an override of a key the
    # config no longer has would leave the benchmark on the fixed value
    workloads = load(ROOT / "perfbench" / "workloads.py", monkeypatch)
    # the fsd set-up wraps cli.fsd_fit; monkeypatch puts the original back
    monkeypatch.setattr(rarebound.cli, "fsd_fit", rarebound.cli.fsd_fit)
    checked = []
    for name, workload in sorted(workloads.WORKLOADS.items()):
        state = workload.setup(rarebound, str(ROOT))
        overrides = getattr(workload, "overrides", {})
        if overrides:
            cfg = state["cfg"]
            keys = {f.name for f in dataclasses.fields(getattr(cfg, cfg.method))}
            assert set(overrides) <= keys, (name, sorted(set(overrides) - keys))
            checked += [(name, key) for key in overrides]
    assert checked


def test_benchmark_workloads_pass_their_checks(monkeypatch):
    # one replication of each workload, checked as the benchmark checks
    # every record, so a change that trips the benchmark's correctness
    # gate fails here first
    workloads = load(ROOT / "perfbench" / "workloads.py", monkeypatch)
    # the fsd set-up wraps cli.fsd_fit; monkeypatch puts the original back
    monkeypatch.setattr(rarebound.cli, "fsd_fit", rarebound.cli.fsd_fit)
    for name, workload in sorted(workloads.WORKLOADS.items()):
        state = workload.setup(rarebound, str(ROOT))
        records = workload.op(rarebound, state, 202, 0)
        assert records, name
        for record in records:
            assert workload.check(rarebound, record) is None, (name, record)


def test_digest_match_lists_differing_replications(monkeypatch):
    bench_pairs = load(ROOT / "scripts" / "bench_pairs.py", monkeypatch)
    parent = [{"fingerprints": ["a", "b", "c"]},
              {"fingerprints": ["a", "b", "c", "d"]}]
    change = [{"fingerprints": ["a", "x", "c", "e", "f"]}]
    assert bench_pairs.digest_match({"parent": parent, "change": change}) == {
        "shared_replications": 4, "matching": 2, "differing": [1, 3]}


def test_pytest_pairs_record_time_and_outcome(tmp_path, monkeypatch):
    bench_pairs = load(ROOT / "scripts" / "bench_pairs.py", monkeypatch)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pick.py").write_text(
        "import time\n\n\ndef test_kept():\n    time.sleep(0.02)\n\n\n"
        "def test_other():\n    assert False\n")
    run = bench_pairs.run_pytest(str(tmp_path), "kept or other")
    assert run["exit_code"] == 1
    assert "1 failed, 1 passed" in run["outcome"]
    assert run["wall_s"] > 0.02
    assert any("call" in line and "test_kept" in line
               for line in run["slowest"])
    runs = [{"expr": "e", "pair": pair, "side": side, "wall_s": wall,
             "exit_code": 0}
            for (pair, side, _), wall in zip(bench_pairs.alternating(2),
                                             [3.0, 2.0, 1.5, 4.0])]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    summary = bench_pairs.summarize_pytest(runs)["e"]
    assert summary["wall_s"]["change_better_in_pairs"] == "2/2"
    assert summary["exit_codes"] == {"parent": [0, 0], "change": [0, 0]}


README = (ROOT / "README.md").read_text(encoding="utf-8")
# each block padded with blank lines, so tracebacks give README line numbers
README_BLOCKS = ["\n" * README.count("\n", 0, m.start(1)) + m.group(1)
                 for m in re.finditer(r"^```python\n(.*?)^```", README,
                                      re.M | re.S)]


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_runs(block):
    # the README's examples call the public API by name and read the
    # fields of what it returns; run them as written
    exec(compile(block, "README.md", "exec"), {})
