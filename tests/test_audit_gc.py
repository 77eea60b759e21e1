"""tools/audit_gc.py and its probe. The probe runs in this process; only
the last test starts the tool's child interpreters."""
import gc
import importlib.util
import json
from pathlib import Path

import spircr

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


audit_gc = _load("audit_gc")
audit_gc_probe = _load("audit_gc_probe")


def test_the_probe_reads_the_count_and_the_collections_of_one_audit():
    callbacks = list(gc.callbacks)
    found = audit_gc_probe.probe(1, 2, 2)
    assert found["params"] == [1, 2, 2]
    assert len(found["count_before"]) == 3 and all(c >= 0 for c in found["count_before"])
    assert all(set(c) == {"generation", "collected"} for c in found["collections"])
    assert gc.callbacks == callbacks  # its own callback is gone


def test_a_collection_inside_the_audit_is_recorded(monkeypatch):
    real = spircr.run_all_audits

    def collecting(params):
        gc.collect()
        return real(params)

    monkeypatch.setattr(spircr, "run_all_audits", collecting)
    assert audit_gc_probe.probe(1, 2, 2)["collections"][0]["generation"] == 2


def test_allocated_counts_the_tracked_objects_the_audit_makes(monkeypatch):
    real = spircr.run_all_audits
    kept = []

    def allocating(params):
        kept.extend([] for _ in range(5000))  # 5000 tracked objects, kept alive
        return real(params)

    assert gc.isenabled()
    audit_gc_probe.allocated(1, 2, 2)  # fills the caches the audit keeps
    assert audit_gc_probe.allocated(1, 2, 2) < 100
    monkeypatch.setattr(spircr, "run_all_audits", allocating)
    # the 5000, give or take what the op frees
    assert 4900 < audit_gc_probe.allocated(1, 2, 2) < 5100
    assert gc.isenabled()  # gc is on again after the count


def test_arguments_other_than_three_numbers_are_a_usage_error(capsys):
    for argv in ([], ["1", "2"], ["1", "2", "x"], ["1", "2", "2", "3"], ["--allocated", "1", "2"]):
        assert audit_gc.main(argv) == 2
    assert capsys.readouterr().err.count("usage: audit_gc.py N K Q") == 5


def test_the_tool_prints_the_probe_and_the_count_of_fresh_interpreters(capsys):
    assert audit_gc.main(["1", "2", "2"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert set(found) == {"params", "count_before", "collections", "allocated"}
    assert found["params"] == [1, 2, 2]
    assert 0 < found["allocated"] < 1000
