"""Self-checks of the benchmark: tracer coverage and accounting, problem
documents, oracles, timeouts, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import run
import workloads
from toricsegre import library
from tracer import MODULES, Tracer, _package_modules, traced_targets

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


def test_every_public_name_is_rebound_in_every_importing_module():
    targets = traced_targets()
    originals = {id(val): name for name, owner, _a, val in targets
                 if not inspect.isclass(owner)}
    with Tracer().installed():
        for mod in _package_modules():
            for attr, val in vars(mod).items():
                assert id(val) not in originals, (
                    "%s.%s escapes the span of %s"
                    % (mod.__name__, attr, originals[id(val)]))
        for name, owner, attr, val in targets:
            assert vars(owner)[attr] is not val, name
        # the shared binding the check exists for
        from toricsegre import groebner, segre
        assert segre.saturate_ideal is groebner.saturate_ideal
        assert segre.saturate_ideal.__wrapped__ is not None
    for name, owner, attr, val in targets:
        assert vars(owner)[attr] is val, "%s not restored" % name


def test_reported_spans_exist_in_every_module():
    names = {name for name, *_rest in traced_targets()}
    for fn in run.LAYER_FUNCTIONS:
        assert fn in names
    for parent, child, _metric in run.LAYER_EDGES:
        assert parent in names and child in names
    for module in MODULES:
        assert any(n.startswith(module + ".") for n in names), module


def _conic():
    return [p for p in workloads.worked() if p.name == "conic_p2"]


def test_traced_pass_matches_untraced_and_counts_repeat():
    problems = _conic()
    deadline = float("inf")
    plain = workloads.run_pass(problems, 7, deadline)
    calls = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced = workloads.run_pass(problems, 7, deadline, tracer)
        assert not traced.failures
        assert traced.records[0].components == plain.records[0].components
        assert traced.records[0].machine == plain.records[0].machine
        calls.append({k: v[0] for k, v in tracer.stats.items()})
        for name, (n, incl, own) in tracer.stats.items():
            assert own <= incl + 1e-9, name
        st = tracer.stats
        assert st["segre.segre_class"][0] == 1
        # children are not counted in the parent's self time
        assert (st["segre.segre_class"][2]
                < st["segre.segre_class"][1] - st["segre.residual_ideal"][1]
                + 1e-6)
        assert tracer.max_coeff_bits > 0
    assert calls[0] == calls[1]


def test_paused_tracer_records_nothing():
    problem = _conic()[0]
    tracer = Tracer()
    with tracer.installed(), tracer.paused():
        workloads._check(problem, *_solve(problem), "")
    assert all(v[0] == 0 for v in tracer.stats.values())


def _solve(problem):
    from toricsegre import segre
    cox, chow, gens = problem.setup()
    result = segre.segre_class(segre.preprocess(cox, chow, gens), seed=0)
    return chow, result


def test_oracle_rejects_a_wrong_class():
    problem = _conic()[0]
    chow, result = _solve(problem)
    workloads._check(problem, chow, result, "")
    wrong = SimpleNamespace(alpha=result.alpha, dim=result.dim,
                            components=(result.components[0],
                                        result.components[1] * 2))
    with pytest.raises(AssertionError):
        workloads._check(problem, chow, wrong, "")


def test_reference_clock_leaves_out_probes_and_scales_by_slowdown(
        monkeypatch):
    def probe():  # always twice as slow as the reference
        end = perf_counter() + 0.004
        while perf_counter() < end:
            pass
        return 0.004
    monkeypatch.setattr(workloads, "PROBE_REFERENCE_S", 0.002)
    clock = workloads.ReferenceClock()
    monkeypatch.setattr(clock, "speed_probe", probe)
    with clock:
        t0, r0, p0 = perf_counter(), clock(), clock._probe_s
        while perf_counter() - t0 < 0.6:
            pass
        t1, r1, p1 = perf_counter(), clock(), clock._probe_s
    assert clock._ticks >= 3
    work = (t1 - t0) - (p1 - p0)
    assert abs((r1 - r0) - work / 2) < 0.005


def test_timeout_counts_as_failure():
    problem = workloads.points()[0]
    rec = workloads.run_problem(problem, 0, 0.05)
    assert rec.error.startswith("ProblemTimeout")
    rec = workloads.run_problem(problem, 0, 0.0)
    assert rec.error.startswith("ProblemTimeout")


def test_documents_describe_the_library_fans():
    from toricsegre import cli
    builders = {
        "example1_f1": library.hirzebruch(1),
        "example2_p1_cubed": library.product_p1_cubed(),
        "example3_p2_x_p1": library.threefold_p2_x_p1(),
        "twisted_cubic_p3": library.projective_space(3),
        "conic_p2": library.projective_space(2),
    }
    assert set(builders) == {name for name, _e in workloads.WORKED}
    for name, cox in builders.items():
        text = (workloads.PROBLEM_DIR / (name + ".json")).read_text()
        built, _chow, _gens = cli.build_problem(cli.load_document(text))
        assert built.fan == cox.fan, name
        assert built.ring.names == cox.ring.names, name
        assert built.ring.grading == cox.ring.grading, name


def test_chow_setup_surfaces_are_validated():
    problems = workloads.chow_setup()
    assert [p.name for p in problems] == [
        "divisor_surface_%d_rays" % r for r in workloads.CHOW_SETUP_SIZES]
    for r in workloads.CHOW_SETUP_SIZES:
        rays = workloads.chow_setup_rays(r)
        assert len(rays) == len(set(rays)) == r


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_names())
    assert len(spec["per_layer"]) <= 128


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "worked",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
