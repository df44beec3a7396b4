"""Benchmark workloads: fixed problem lists, closed-form oracles, and the
pass runner.

A pass is one sweep over a workload's problem list.  Each problem's setup
(fan validation, Cox context, Chow ring, parsing) and solve
(``preprocess`` plus ``segre_class``) are timed; its total also covers the
output step (``build_output`` plus ``format_machine``) on the CLI path.
Then the result is checked against a closed-form oracle.  The only input
the program receives from the benchmark seed is the ``seed`` of
``segre_class``.

Every call into the package goes through a module attribute
(``segre.segre_class``, not an imported name), so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import collections
import json
import math
import signal
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from toricsegre import chow as chow_mod
from toricsegre import cli, fan, library, parser, segre

PROBLEM_DIR = Path(__file__).resolve().parent / "problems"
RETRIES = 5  # the CLI default
PROBLEM_TIMEOUT_S = 60.0
# Seconds the speed probe takes on an unloaded 2.1 GHz Xeon core.
PROBE_REFERENCE_S = 0.0025
# Process CPU seconds between two speed probes.
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 5


class ProblemTimeout(Exception):
    """A problem ran past its time limit."""


@dataclass(frozen=True)
class Problem:
    name: str
    setup: object     # () -> (cox, chow, generators)
    expected: object  # (chow, result) -> expected Segre components
    document: bool    # output goes through build_output / format_machine


@dataclass
class ProblemRecord:
    name: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    error: str = ""
    components: tuple = ()
    machine: str = ""
    attempts: int = 0
    residual_rows: int = 0
    basis_size: int = 0
    prepared: tuple = ()  # (cox, chow, generators) from the setup


@dataclass
class PassResult:
    seed: int
    wall_s: float
    raw_wall_s: float
    records: list = field(default_factory=list)

    @property
    def setup_s(self):
        return sum(r.setup_s for r in self.records)

    @property
    def solve_s(self):
        return sum(r.solve_s for r in self.records)

    @property
    def problem_geomean_s(self):
        logs = [math.log(r.total_s) for r in self.records]
        return math.exp(sum(logs) / len(logs))

    @property
    def failures(self):
        return [r for r in self.records if r.error]


# --- closed-form oracles ----------------------------------------------------

def _product(chow, classes):
    out = chow.one()
    for c in classes:
        out = chow.multiply(out, c)
    return out


def _sum(chow, classes):
    out = chow.zero()
    for c in classes:
        out = out + c
    return chow.reduce(out)


def _example1(chow, result):
    """F_1, alpha (6,4): s = (3F + 2E, -6EF) with F = [x0], E = [y1]."""
    if tuple(result.alpha) != (6, 4):
        raise AssertionError("alpha %r, expected (6, 4)" % (result.alpha,))
    F, E = chow.divisor(0), chow.divisor(3)
    return (chow.reduce(F * 3 + E * 2), chow.reduce(_product(chow, (E, F)) * -6))


def _example2(chow, result):
    """P1^3: s = (D3, D2D3 + D1D2, -5D1D2D3), D1 = [x0], D2 = [y0],
    D3 = [z0]."""
    d1, d2, d3 = chow.divisor(0), chow.divisor(2), chow.divisor(4)
    return (d3,
            _sum(chow, (_product(chow, (d2, d3)), _product(chow, (d1, d2)))),
            chow.reduce(_product(chow, (d1, d2, d3)) * -5))


def _example3(chow, result):
    """Complete intersection of A = [x1 x2] and B = [x3 x4] on P2 x P1:
    s = AB/((1+A)(1+B)) = (AB, -(A+B)AB); the point part has degree -6."""
    a = _sum(chow, (chow.divisor(1), chow.divisor(2)))
    b = _sum(chow, (chow.divisor(3), chow.divisor(4)))
    ab = _product(chow, (a, b))
    s1 = chow.reduce(_product(chow, (_sum(chow, (a, b)), ab)) * -1)
    if chow.degree(s1) != -6:
        raise AssertionError("closed form gives degree %d, not -6"
                             % chow.degree(s1))
    return (ab, s1)


def _hyperplane_powers(codim, *coeffs):
    """Components c_i h^(codim + i) on P^n with h = [x0]."""
    def expected(chow, result):
        h = chow.divisor(0)
        return tuple(chow.reduce(_product(chow, (h,) * (codim + i)) * c)
                     for i, c in enumerate(coeffs))
    return expected


def _point(cone):
    """s(point) = [point], the product of the divisors of its cone."""
    def expected(chow, result):
        return (_product(chow, [chow.divisor(i) for i in cone]),)
    return expected


def _divisor(i):
    """s(D) = D/(1+D) = (D, -D^2) on a surface."""
    def expected(chow, result):
        d = chow.divisor(i)
        return (d, chow.reduce(_product(chow, (d, d)) * -1))
    return expected


# --- problem lists ------------------------------------------------------------

def _document_setup(text):
    def setup():
        return cli.build_problem(cli.load_document(text))
    return setup


def _library_setup(make_cox, texts):
    def setup():
        cox = make_cox()
        fan.validate_smooth_complete(cox.fan)
        chow = chow_mod.build_chow_ring(cox)
        gens = [parser.parse_polynomial(t, cox.ring) for t in texts]
        return cox, chow, gens
    return setup


def _cyclic_fan(rays):
    """Surface fan whose maximal cones are the cyclically adjacent ray
    pairs."""
    r = len(rays)
    return fan.Fan(tuple(rays), tuple((i, (i + 1) % r) for i in range(r)))


def _surface(rays):
    """Cox context of ``_cyclic_fan(rays)``; variables z0..z(r-1)."""
    def make_cox():
        return fan.build_cox_context(_cyclic_fan(rays))
    return make_cox


def chow_setup_rays(r):
    """(1,0), (j+1,j) for j = 1..r-8, then the seven rays from (1,1) round
    to (1,-1): a smooth surface with r rays and a long chain of blow-ups,
    so minimal_non_faces and the Chow-ring Groebner basis grow with r."""
    return ([(1, 0)] + [(j + 1, j) for j in range(1, r - 7)]
            + [(1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])


WORKED = (
    ("example1_f1", _example1),
    ("example2_p1_cubed", _example2),
    ("example3_p2_x_p1", _example3),
    ("twisted_cubic_p3", _hyperplane_powers(2, 3, -10)),
    ("conic_p2", _hyperplane_powers(1, 2, -4)),
)

FIVE_RAY_SURFACE = ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1))
CHOW_SETUP_SIZES = (12, 14, 16)


def worked():
    return [Problem(name, _document_setup(
                        (PROBLEM_DIR / (name + ".json")).read_text()),
                    expected, document=True)
            for name, expected in WORKED]


def points():
    return [
        Problem("point_p1_cubed",
                _library_setup(library.product_p1_cubed, ("x0", "y0", "z0")),
                _point((0, 2, 4)), document=False),
        Problem("point_5_ray_surface",
                _library_setup(_surface(FIVE_RAY_SURFACE), ("z0", "z1")),
                _point((0, 1)), document=False),
    ]


def chow_setup():
    problems = []
    for r in CHOW_SETUP_SIZES:
        rays = chow_setup_rays(r)
        # checked before any timing, so that a generator bug cannot pass
        # for a slow or a fast variety
        f = _cyclic_fan(rays)
        fan.validate_smooth_complete(f)
        ranks = chow_mod.chow_ranks(f)
        if ranks != (1, r - 2, 1):
            raise ValueError("surface with %d rays has Chow ranks %r"
                             % (r, ranks))
        problems.append(Problem("divisor_surface_%d_rays" % r,
                                _library_setup(_surface(rays), ("z0",)),
                                _divisor(0), document=False))
    return problems


WORKLOADS = {"worked": worked, "points": points, "chow-setup": chow_setup}


# --- running ------------------------------------------------------------------

class ReferenceClock:
    """A clock that runs at the speed of the reference machine.

    A speed probe runs every ``PROBE_INTERVAL_S`` of process CPU time
    (``SIGPROF``), interleaved with the work, so that it sees the host
    speed the work sees.  Each stretch of wall time between two probes
    counts as its length over the slowdown at its start: the median of
    the last ``PROBE_WINDOW`` probe times over ``PROBE_REFERENCE_S`` (the
    median damps single-probe jitter; the host's speed phases last
    seconds).  Probe time itself is not counted.  Calling the clock
    returns reference seconds; use it as a context manager."""

    def __init__(self):
        self._table = bytes(range(256)) * 8192  # 2 MiB, read at random
        self._probe_s = 0.0   # wall time spent in probes
        self._base = 0.0      # work time (wall minus probes) at last probe
        self._ref = 0.0       # reference seconds up to the last probe
        self._recent = collections.deque(maxlen=PROBE_WINDOW)
        self._slowdown = 1.0  # slowdown measured by the recent probes
        self._ticks = 0
        self._busy = False

    def _work_time(self):
        return perf_counter() - self._probe_s

    def speed_probe(self):
        """Seconds taken by a fixed amount of interpreter work like the
        Groebner engine's: big-integer arithmetic, exponent-tuple dict
        keys, and reads scattered over a 2 MiB table."""
        table, counts = self._table, {}
        x = acc = 0
        start = perf_counter()
        for i in range(4000):
            x = (x * 1103515245 + 12345) % 2147483648
            acc += table[x & 0x1FFFFF]
            key = (x & 4095, i & 7, 1, 0, 2, 0, 1, 0, 0, 3, 0, 1)
            counts[key] = counts.get(key, 0) + (acc << 70) // 7
        return perf_counter() - start

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            now = self._work_time()
            t = self.speed_probe()
            self._ref += (now - self._base) / self._slowdown
            self._probe_s += t
            self._base = now  # the probe's time is not work time
            self._recent.append(t)
            self._slowdown = statistics.median(self._recent) / PROBE_REFERENCE_S
            self._ticks += 1
        finally:
            self._busy = False

    def __call__(self):
        while True:  # a probe may land between the reads below
            ticks = self._ticks
            value = (self._ref
                     + (self._work_time() - self._base) / self._slowdown)
            if ticks == self._ticks:
                return value

    def __enter__(self):
        self._base = self._work_time()
        self._tick()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def _on_alarm(signum, frame):
    raise ProblemTimeout("problem exceeded its time limit")


def _check(problem, chow, result, machine):
    expected = problem.expected(chow, result)
    got = tuple(result.components)
    if got != expected:
        raise AssertionError(
            "components %s, expected %s"
            % ([chow.format_class(c) for c in got],
               [chow.format_class(c) for c in expected]))
    if machine:
        segre_out = json.loads(machine)["segre"]
        want = [[int(x) for x in chow.coefficients_on_basis(c)]
                for c in expected]
        if [s["coefficients"] for s in segre_out] != want:
            raise AssertionError("machine output %r, expected %r"
                                 % (segre_out, want))


def run_problem(problem, seed, time_limit, tracer=None, clock=perf_counter,
                prepared=None):
    """Run one problem; any failure is recorded on the record, never
    raised, so that a pass always reports every problem it attempted.
    With ``prepared`` (an earlier record's) the setup is skipped."""
    rec = ProblemRecord(problem.name)
    start = clock()
    try:
        if time_limit <= 0:
            raise ProblemTimeout("no time left in the run")
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, time_limit)
        try:
            rec.prepared = prepared or problem.setup()
            cox, chow, gens = rec.prepared
            t1 = clock()
            rec.setup_s = t1 - start
            prob = segre.preprocess(cox, chow, gens)
            result = segre.segre_class(prob, seed=seed, retries=RETRIES)
            rec.solve_s = clock() - t1
            if problem.document:
                rec.machine = cli.format_machine(cli.build_output(
                    cox, chow, prob, result, RETRIES))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        rec.total_s = clock() - start
        # the oracle is benchmark work: keep it out of the layer spans
        if tracer is None:
            _check(problem, chow, result, rec.machine)
        else:
            with tracer.paused():
                _check(problem, chow, result, rec.machine)
        rec.components = tuple(result.components)
        rec.attempts = result.attempt + 1
        for rd in result.residuals:
            if rd.dimension is not None:
                rec.residual_rows += len(rd.beta_rows)
                rec.basis_size += len(chow.bases[rd.d])
    except Exception as exc:  # noqa: BLE001  (counted as a failed problem)
        rec.error = "%s: %s" % (type(exc).__name__, exc)
        rec.total_s = rec.total_s or clock() - start
    return rec


def run_pass(problems, seed, deadline, tracer=None, clock=perf_counter,
             prepared=None):
    """One sweep over ``problems`` with ``segre_class`` seed ``seed``,
    timed by ``clock``; ``deadline`` is a ``perf_counter`` value no
    problem may run past.  ``prepared`` (one per problem) skips the
    setups."""
    raw_start = perf_counter()
    start = clock()
    records = []
    for i, problem in enumerate(problems):
        limit = min(PROBLEM_TIMEOUT_S, deadline - perf_counter())
        records.append(run_problem(problem, seed, limit, tracer, clock,
                                   prepared and prepared[i]))
    return PassResult(seed=seed, wall_s=clock() - start,
                      raw_wall_s=perf_counter() - raw_start, records=records)


def setup_round(problems, clock):
    """``clock`` seconds to set up every problem once."""
    start = clock()
    for problem in problems:
        problem.setup()
    return clock() - start
