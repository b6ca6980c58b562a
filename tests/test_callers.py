"""Code outside the package still finds every name it uses.

The scripts and the benchmark's span recorder look rarebound names up by
attribute, so a deleted or renamed name fails only when they run.  These
tests load them the way they are used, without running them.
"""

import dataclasses
import importlib.util
import pathlib
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


def test_digest_match_lists_differing_replications(monkeypatch):
    bench_pairs = load(ROOT / "scripts" / "bench_pairs.py", monkeypatch)
    parent = [{"fingerprints": ["a", "b", "c"]},
              {"fingerprints": ["a", "b", "c", "d"]}]
    change = [{"fingerprints": ["a", "x", "c", "e", "f"]}]
    assert bench_pairs.digest_match({"parent": parent, "change": change}) == {
        "shared_replications": 4, "matching": 2, "differing": [1, 3]}
