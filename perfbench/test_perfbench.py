"""Self-tests of the benchmark itself.

Run from the root of a liesym checkout:

    python3 -m pytest perfbench -q
"""

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import liesym  # noqa: E402


def _dump(jobs):
    return json.dumps(jobs, sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert _dump(workloads.job_list(workload, 7, 120)) == \
        _dump(workloads.job_list(workload, 7, 120))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_job_list(workload):
    assert _dump(workloads.job_list(workload, 7, 120)) != \
        _dump(workloads.job_list(workload, 8, 120))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_kinds(workload):
    # the seed changes values, never the job mix
    def kinds(seed):
        return [j["kind"] for j in workloads.job_list(workload, seed, 120)]
    assert kinds(1) == kinds(2)


def _liesym_bindings():
    """Identity of every attribute of every liesym module and wrapped class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "liesym" or name.startswith("liesym.")):
            for key, value in vars(mod).items():
                snap[(name, key)] = id(value)
    for modname, clsname, *_ in tracer.METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for key, value in vars(cls).items():
            snap[(modname, clsname, key)] = id(value)
    return snap


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_verdicts_agree(workload, tmp_path):
    import liesym.cli  # noqa: F401  (loaded before the snapshot)

    jobs = workloads.round_jobs(workload, 3, 0)
    plain = run.run_pass(jobs, str(tmp_path / "plain"), None)
    run.check_pass(plain)
    before = _liesym_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.run_pass(jobs, str(tmp_path / "traced"), None, t)
    finally:
        t.restore()
    assert _liesym_bindings() == before, "tracer left liesym patched"
    run.check_pass(traced)
    assert all(r.ok for r in plain), [r.detail for r in plain if not r.ok]
    assert [(r.ok, r.detail) for r in plain] == [(r.ok, r.detail) for r in traced]

    # self times derived from the spans add up to the traced wall time of
    # the root spans and of the leaf calls made outside every span: nothing
    # is counted twice or lost
    selfs = t.self_times()
    roots = sum(end - start for _, start, end, parent, _, _ in t.spans
                if parent == -1)
    assert sum(s for _, s in selfs.values()) == \
        pytest.approx(roots + t.loose[0], rel=1e-9)
    assert all(s >= -1e-6 for _, s in selfs.values())


def test_span_records_carry_job_ids(tmp_path):
    jobs = workloads.round_jobs("multitime", 1, 0)[:3]
    t = tracer.Tracer()
    t.install()
    try:
        run.run_pass(jobs, str(tmp_path / "traced"), None, t)
    finally:
        t.restore()
    assert {job for _, _, _, _, job, _ in t.spans} == {0, 1, 2}


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    emitted = tracer.layer_metrics({}, tracer.defaultdict(int), 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in emitted.items()}
    e2e = run.end_to_end([run.Record({"slot": "r0"}, {}, None, 1.0, 1.0)], 1.0, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


PUBLIC = set(liesym.__all__) | {"cli"}


def test_workloads_use_only_public_liesym_names():
    tree = ast.parse(open(os.path.join(HERE, "workloads.py"), encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("liesym"):
                    assert alias.name in ("liesym", "liesym.cli"), alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liesym"):
            pytest.fail(f"from {node.module} import ... binds names at import "
                        f"time; use liesym.<name> so traced runs see wrappers")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "liesym":
            assert node.attr in PUBLIC and not node.attr.startswith("_"), node.attr
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "liesym" and node.value.attr == "cli":
            assert node.attr == "main", node.attr
