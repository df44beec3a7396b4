"""toricsegre benchmark.

    python3 perfbench/run.py --workload worked --seed 0 --seconds 36 --trace 0

Runs passes over one workload (see ``workloads.py``) for about
``--seconds`` seconds.  Pass ``i`` gives ``segre_class`` the seed
``1000 * seed + i``, so the same ``--seed`` gives the same inputs.

With ``--trace 0`` every pass is untraced and the result reports the
end-to-end metrics, each the median over the timed passes (``setup_s``
and ``solve_s`` also over rounds of that phase alone where it is short,
see ``EXTRA_ROUNDS_S``).  On the CLI path
(``worked``) an untimed pass first runs on the seed of pass 0, and its
machine-format JSON must be byte-identical to pass 0's.

Times are reported at reference machine speed.  The speed of a shared
host drifts: a fixed loop took anywhere from 0.95 to 1.6 s within two
minutes on a 2-core Xeon VM, in phases of 10 to 20 s, which no median
over a 40 s run removes.  So every interval is timed with
``workloads.ReferenceClock``: a 2.5 ms speed probe (a fixed loop of
big-integer, tuple, dict and scattered memory work) runs every 0.1 s of
CPU time, interleaved with the work, and each stretch between probes
counts as its length divided by how much slower than its reference time
the recent probes ran.  Probe time is not counted.  The raw wall-time
median and the slowdown are printed too.  On that host this cut the
run-to-run quartile spread of ``wall_s`` from about 12% to 2-3%.

With ``--trace 1`` passes come in pairs on one seed: untraced, then traced
(``tracer.py``).  The pair must give identical Segre classes (and identical
JSON on the CLI path).  The result reports the per-layer metrics: call and
result-derived counts from the first traced pass (exact for a given seed),
raw timings as medians over traced passes, and the tracing overhead as the
median of traced over untraced pass wall time.

Every problem is checked against a closed-form oracle; a problem that
raises, times out or disagrees counts as failed.  The human-readable lines
go first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
is imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Passes a run makes even past --seconds: on a host running at half speed
# three passes of `points` would take a minute.
MIN_PASSES = 2
# No pass starts once it would end later than this after the start, so a
# run stays well inside three minutes even when problems time out.
HARD_LIMIT_S = 140.0
# A phase too short to give a steady median over the passes alone is
# sampled again in rounds of that phase only, for this long after them:
# setup where it takes at most a tenth of this, solve where it takes at
# most a quarter of a pass.
EXTRA_ROUNDS_S = 3.0

# Spans reported per layer, as <name>.calls / .s / .self_s.
LAYER_FUNCTIONS = (
    "cli.load_document", "cli.build_problem", "cli.build_output",
    "cli.format_machine",
    "parser.parse_polynomial",
    "fan.validate_smooth_complete", "fan.build_cox_context",
    "fan.grading_matrix", "fan.minimal_non_faces", "fan.chart_dehomogenize",
    "chow.build_chow_ring", "chow.chow_ranks", "chow.reduce",
    "chow.multiply", "chow.degree",
    "cones.curve_functionals", "cones.find_alpha",
    "segre.preprocess", "segre.segre_class", "segre.pick_sections",
    "segre.residual_ideal", "segre.residual_class", "segre.zero_dim_length",
    "groebner.groebner_basis", "groebner.normal_form",
    "groebner.saturate_ideal", "groebner.krull_dimension",
    "groebner.vector_space_dimension",
    "linalg.rational_rank", "linalg.solve_linear_system",
    "linalg.solve_integer", "linalg.fm_feasible_point",
    "exactpoly.random_homogeneous", "exactpoly.multidegree_of",
)
# Child spans reported by parent: (parent, child, metric name).
LAYER_EDGES = (
    ("chow.build_chow_ring", "groebner.groebner_basis",
     "groebner.groebner_basis.in_build_chow_ring.s"),
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("problem_geomean_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import MODULES
    out = []
    for fn in LAYER_FUNCTIONS:
        out += [(fn + ".calls", "count"), (fn + ".s", "s"),
                (fn + ".self_s", "s")]
    out += [(m + ".self_s", "s") for m in MODULES]
    out += [(name, "s") for _p, _c, name in LAYER_EDGES]
    out += [("segre.attempts", "count"), ("segre.residual_rows", "count"),
            ("segre.row_yield", "ratio"), ("groebner.max_coeff_bits", "bits"),
            ("trace_overhead", "ratio")]
    return out


def _load_program():
    """Put this checkout's ``src/`` first on the path; False if absent."""
    if not (SRC / "toricsegre" / "__init__.py").is_file():
        print("error: no toricsegre sources under %s" % SRC, file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def _pass_seed(seed, i):
    return 1000 * seed + i


def _keep_going(count, minimum, elapsed, estimate, seconds):
    """Whether to start another pass (or pair) of ``estimate`` seconds."""
    if elapsed + estimate > HARD_LIMIT_S:
        return False
    return count < minimum or elapsed + estimate <= seconds


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _print_metric(name, values, unit):
    lo, hi = _quartiles(values)
    print("  %-48s %12.6g %-6s (median of n=%d; q1 %.6g, q3 %.6g)"
          % (name, statistics.median(values), unit, len(values), lo, hi))


def _report_failures(passes):
    failed = 0
    attempted = 0
    for p in passes:
        attempted += len(p.records)
        for r in p.failures:
            failed += 1
            print("FAILED %s (seed %d): %s" % (r.name, p.seed, r.error),
                  file=sys.stderr)
    return attempted, failed


def measure(workload, problems, seed, seconds):
    from workloads import ReferenceClock, run_pass, setup_round
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    checked = []   # every pass run, for the failure count
    deterministic = True
    cli_path = any(p.document for p in problems)
    if cli_path:
        warm = run_pass(problems, _pass_seed(seed, 0), deadline)
        checked.append(warm)
    passes = []
    with ReferenceClock() as clock:
        while True:
            p = run_pass(problems, _pass_seed(seed, len(passes)), deadline,
                         clock=clock)
            passes.append(p)
            checked.append(p)
            estimate = statistics.median(x.raw_wall_s for x in passes)
            if not _keep_going(len(passes), MIN_PASSES,
                               perf_counter() - start, estimate, seconds):
                break
        setups = [p.setup_s for p in passes]
        solves = [p.solve_s for p in passes]
        sound = not any(p.failures for p in checked)
        if sound and statistics.median(setups) <= EXTRA_ROUNDS_S / 10:
            end = perf_counter() + EXTRA_ROUNDS_S
            while perf_counter() < end:
                setups.append(setup_round(problems, clock))
        if sound and (statistics.median(solves)
                      <= statistics.median(p.wall_s for p in passes) / 4):
            prepared = [r.prepared for r in passes[-1].records]
            end = perf_counter() + EXTRA_ROUNDS_S
            while perf_counter() < end:
                p = run_pass(problems, _pass_seed(seed, len(checked)),
                             deadline, clock=clock, prepared=prepared)
                checked.append(p)
                solves.append(p.solve_s)
    if cli_path:
        same = [a.machine == b.machine
                for a, b in zip(warm.records, passes[0].records)]
        if not all(same):
            deterministic = False
            print("NOT DETERMINISTIC: seed %d gave different JSON twice"
                  % passes[0].seed, file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": setups,
        "solve_s": solves,
        "problem_geomean_s": [p.problem_geomean_s for p in passes],
        "peak_rss_mb": [rss_mb],
    }
    attempted, failed = _report_failures(checked)
    print("workload %s, seed %d: %d timed passes of %d problems"
          % (workload, seed, len(passes), len(problems)))
    for name, unit in END_TO_END:
        _print_metric(name, series[name], unit)
    print("  %-48s %12.6g %-6s (%d failed of %d attempted)"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    print("raw, not scaled to reference speed:")
    _print_metric("wall_s", [p.raw_wall_s for p in passes], "s")
    _print_metric("slowdown", [p.raw_wall_s / p.wall_s for p in passes],
                  "ratio")
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
               for name, unit in END_TO_END}
    return deterministic and not failed, attempted, failed, metrics


def trace(workload, problems, seed, seconds):
    from tracer import MODULES, Tracer
    from workloads import run_pass
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    pairs = []
    deterministic = True
    while True:
        s = _pass_seed(seed, len(pairs))
        plain = run_pass(problems, s, deadline)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(problems, s, deadline, tracer)
        for a, b in zip(plain.records, traced.records):
            if (a.components, a.machine) != (b.components, b.machine):
                deterministic = False
                print("TRACING CHANGED OUTPUT: %s, seed %d" % (a.name, s),
                      file=sys.stderr)
        pairs.append((plain, traced, tracer))
        estimate = statistics.median(a.raw_wall_s + b.raw_wall_s
                                     for a, b, _t in pairs)
        # one pair suffices: counts are exact, timings are medians
        if not _keep_going(len(pairs), 1, perf_counter() - start, estimate,
                           seconds):
            break
    first, tracers = pairs[0], [t for _a, _b, t in pairs]
    series = {}
    for fn in LAYER_FUNCTIONS:
        stats = [t.stats.get(fn, (0, 0.0, 0.0)) for t in tracers]
        series[fn + ".calls"] = [stats[0][0]]
        series[fn + ".s"] = [st[1] for st in stats]
        series[fn + ".self_s"] = [st[2] for st in stats]
    for m in MODULES:
        series[m + ".self_s"] = [t.module_self_s(m) for t in tracers]
    for parent, child, name in LAYER_EDGES:
        series[name] = [t.edges.get((parent, child), 0.0) for t in tracers]
    records = first[1].records
    rows = sum(r.residual_rows for r in records)
    series["segre.attempts"] = [sum(r.attempts for r in records)]
    series["segre.residual_rows"] = [rows]
    series["segre.row_yield"] = [sum(r.basis_size for r in records)
                                 / rows if rows else 0.0]
    series["groebner.max_coeff_bits"] = [first[2].max_coeff_bits]
    series["trace_overhead"] = [b.wall_s / a.wall_s for a, b, _t in pairs]
    attempted, failed = _report_failures([p for a, b, _t in pairs
                                          for p in (a, b)])
    print("workload %s, seed %d: %d untraced/traced pass pairs"
          % (workload, seed, len(pairs)))
    print("all spans, first traced pass (name, calls, s, self_s):")
    for name, (calls, incl, own) in sorted(
            first[2].stats.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print("  %-48s %8d %10.4f %10.4f" % (name, calls, incl, own))
    print("reported per-layer metrics:")
    metrics = {}
    for name, unit in per_layer_names():
        _print_metric(name, series[name], unit)
        metrics[name] = {"value": statistics.median(series[name]),
                         "unit": unit}
    return deterministic and not failed, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    if not _load_program():
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    problems = WORKLOADS[args.workload]()
    run = trace if args.trace else measure
    correct, attempted, failed, metrics = run(args.workload, problems,
                                              args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
