"""What the benchmark under bench/ reads from the library: the cached
functions whose cache_info it reports, and, for each workload, items that
run and pass the workload's own check.  A change that renames a function
or alters a signature the benchmark calls fails here."""

import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def test_cached_functions_keep_cache_info(workloads):
    for name, fn in workloads.CACHED.items():
        assert callable(getattr(fn, "cache_info", None)), name


@pytest.mark.parametrize("name", ["poset-sweep", "graph-sweep", "verify", "cli"])
def test_workload_items_pass_their_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    _, pool, _ = workload.generate(1, 1, tmp_path)
    assert pool
    for inp in pool:
        assert workload.check(inp, workload.item(inp)) is None
