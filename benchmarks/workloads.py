"""The benchmark's workloads.

Load comes from one client in a closed loop: the next op starts only after
the last one ended.  Each workload exposes

    setup(seed)        preparation before the first timed op (import, lattice
                       build, warm-up, input generation); raises SetupError
                       if the program's output is wrong already here
    inputs(i)          untimed: the inputs of op i, made from the seed only
    op(x) -> bool      one timed op on those inputs; True iff its output check passed
    traced_op()        one op under the tracer -> (seconds, ok, summary, ball elements, suite ms)
    peak_rss_mb()      peak resident memory of the process(es) that did the work

The program is reached only through its public functions and its CLI, and
always through module attributes (`self.tree.act`, never a local
`from quatlat.tree import act`), so that the tracer's rebinding sees every
call.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The workload could not be prepared, or its warm-up output was wrong."""


def compile_sources() -> None:
    """Write src/'s bytecode (src/**/__pycache__) in a child of its own, so
    every measured interpreter imports quatlat from .pyc files, as an
    installed copy does, whatever the caller's PYTHONDONTWRITEBYTECODE says,
    and the first run in a fresh checkout compiles outside any measurement
    (compiling also raises a CLI run's peak memory)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)], env=child_env(), check=True, timeout=CHILD_TIMEOUT_S
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def import_quatlat(name: str = "quatlat"):
    """Import a quatlat module from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module(name)
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"{name} was imported from {module.__file__}, not from {SRC}")
    return module


def ball_size(radius: int) -> int:
    """Vertices within L1 distance `radius` of a vertex of the product of two
    3-regular trees, counted here independently of quatlat.tree."""
    sphere = [1] + [3 * 2 ** (k - 1) for k in range(1, radius + 1)]
    return sum(sphere[i] * sphere[j] for i in range(radius + 1) for j in range(radius + 1 - i))


def word_products(radius: int) -> int:
    """Quaternion products ball_check makes by enumerating every freely
    reduced word of length 1..radius over 6 letters (c1, c2 self-inverse):
    6 * 5^(k-1) words of length k.  4,686 at radius 5."""
    return sum(6 * 5 ** (k - 1) for k in range(1, radius + 1))


def traced_call(fn):
    """fn() under a freshly installed tracer -> (seconds, result, trace summary).

    fn must look up quatlat names when called, after the tracer patched them."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
    finally:
        tracer.uninstall()
    return seconds, result, tracer.summary()


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class VerifyCli:
    """`python -m quatlat verify --json` in a fresh interpreter, as a user runs it."""

    name = "verify-cli"
    setup_samples = 11  # each sample is one cold run of the CLI
    fresh_setup = False  # a sample already starts its own interpreter
    rss_after_ops = 1  # every op is the same child; its peak does not grow
    cal_loops = 1  # calibration loops on each side of an op (see run.calibrate)
    traced_ops = 2
    identical_ops = True  # every traced op must make the same calls
    ARGV = ("verify", "--json")

    def __init__(self) -> None:
        self.reference: bytes | None = None
        # the children import quatlat through child_env(); checking its origin
        # here keeps that import out of every timed set-up
        import_quatlat()

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None

    def setup(self, seed: int) -> None:
        out = self._run([sys.executable, "-m", "quatlat", *self.ARGV])
        if out is None or out.returncode != 0:
            raise SetupError(f"verify exited with {None if out is None else out.returncode}")
        payload = json.loads(out.stdout)
        if not payload.get("all_passed") or payload.get("failures"):
            raise SetupError(f"verify did not pass: {payload.get('failures')}")
        if self.reference is not None and out.stdout != self.reference:
            raise SetupError("verify --json output differs between two runs")
        self.reference = out.stdout

    def inputs(self, i: int):
        return None

    def op(self, _inputs) -> bool:
        out = self._run([sys.executable, "-m", "quatlat", *self.ARGV])
        return out is not None and out.returncode == 0 and out.stdout == self.reference

    def traced_op(self):
        start = perf_counter()
        out = self._run([sys.executable, str(CHILD), "trace-cli", *self.ARGV])
        seconds = perf_counter() - start
        if out is None:
            return seconds, False, None, 0, {}
        report = json.loads(out.stderr.decode().strip().splitlines()[-1])
        ok = out.returncode == 0 and out.stdout == self.reference
        return seconds, ok, report["summary"], report["ball_elements"], report["suite_ms"]

    def peak_rss_mb(self) -> float:
        return _max_rss_mb(resource.RUSAGE_CHILDREN)


class BallR5:
    """One call of quatlat.certify.ball_check(radius), 5 by default, in this process."""

    name = "ball-r5"
    setup_samples = 5  # each sample imports afresh and repeats the 2-3 s warm-up call
    fresh_setup = True
    rss_after_ops = 1
    cal_loops = 10  # a 2-3 s op: a longer calibration sample on each side
    traced_ops = 1
    identical_ops = True

    def __init__(self, radius: int = 5) -> None:
        self.radius = radius
        self.elements = ball_size(radius)

    def setup(self, seed: int) -> None:
        self.certify = import_quatlat("quatlat.certify")
        self.tree = import_quatlat("quatlat.tree")
        if self.tree.ball_vertex_count(self.radius) != self.elements:
            raise SetupError(f"ball_vertex_count({self.radius}) != {self.elements}")
        if not self.op(None):
            raise SetupError(f"warm-up ball_check({self.radius}) failed its check")

    def inputs(self, i: int):
        return None

    def op(self, _inputs) -> bool:
        report = self.certify.ball_check(self.radius)
        return bool(report.injective) and report.distinct_elements == self.elements

    def traced_op(self):
        seconds, report, summary = traced_call(lambda: self.certify.ball_check(self.radius))
        # A binding the tracer missed would lose these calls; today's word
        # enumeration makes one product and two tree actions per word.
        products = word_products(self.radius)
        counts_ok = summary["ball_products"] == products and summary["calls"].get("tree.act") == 2 * products
        if not counts_ok:
            print(
                f"trace check failed: ball_check products {summary['ball_products']} (want {products}), "
                f"tree.act calls {summary['calls'].get('tree.act')} (want {2 * products})",
                file=sys.stderr,
            )
        ok = counts_ok and bool(report.injective) and report.distinct_elements == self.elements
        return seconds, ok, summary, report.distinct_elements, {}

    def peak_rss_mb(self) -> float:
        return _max_rss_mb(resource.RUSAGE_SELF)


class ArithMix:
    """A batch of random quaternion pairs, drawn as tier-1 criteria 03 and 14
    draw theirs, pushed through product, rnorm, inverse, both splittings and
    the trees."""

    name = "arith-mix"
    setup_samples = 21  # ~0.1 s each, mostly import: many samples keep the median steady
    fresh_setup = True
    # The embed_scalar caches grow with every new coordinate, so peak memory
    # is read after a fixed amount of work, not after however many batches
    # the run's seconds allowed.
    rss_after_ops = 20
    cal_loops = 1
    traced_ops = 5
    identical_ops = False  # each traced op gets a new batch
    # Coordinates as conftest.random_quaternion(rng, alg, 1) makes them:
    # numerator any polynomial of degree <= 1 (zero too), denominator a
    # nonzero one of degree <= 1.
    COORD_BITS = 2

    def __init__(self, pairs: int = 40) -> None:
        self.pairs = pairs

    def setup(self, seed: int) -> None:
        quatlat = import_quatlat()
        self.rational, self.tree, self.places = quatlat.rational, quatlat.tree, quatlat.places
        self.algebra = quatlat.quaternion.standard_algebra()
        self.one = self.algebra.one()
        rho_y, rho_t = quatlat.embeddings.RHO_Y, quatlat.embeddings.RHO_T
        self.maps = ((rho_y, self.tree.standard_vertex("y")), (rho_t, self.tree.standard_vertex("t")))
        self.rng = random.Random(seed)
        self.first = self._batch(self.rng)
        # traced and warm-up batches come from their own streams, so timed
        # batches do not replay them; the warm-up batch is the same for every
        # seed, since batch costs differ and set-up time should not
        self.trace_rng = random.Random(f"arith-mix/trace/{seed}")
        if not self.op(self._batch(random.Random("arith-mix/warm-up"))):
            raise SetupError("warm-up batch failed its checks")

    def _batch(self, rng: random.Random) -> list:
        def coord():
            num, den = rng.getrandbits(self.COORD_BITS), 0
            while not den:
                den = rng.getrandbits(self.COORD_BITS)
            return num, den

        return [tuple(tuple(coord() for _ in range(4)) for _ in range(2)) for _ in range(self.pairs)]

    def inputs(self, i: int):
        return self.first if i == 0 else self._batch(self.rng)

    def _element(self, coords):
        rf = self.rational.rf
        return self.algebra.element(*(rf(num, den) for num, den in coords))

    def op(self, batch) -> bool:
        tree, valuation, zero = self.tree, self.places.valuation, self.places.PLACE_ZERO
        ok = True
        for q_coords, r_coords in batch:
            q, r = self._element(q_coords), self._element(r_coords)
            norm_q = q.rnorm()
            ok &= (q * r).rnorm() == norm_q * r.rnorm()
            # a division algebra: only q = 0 (1 in 256 draws) has rnorm 0,
            # and it has no inverse and no vertex
            invertible = not q.is_zero()
            ok &= norm_q.is_zero() != invertible
            if invertible:
                ok &= q * q.inverse() == self.one
            for rho, base in self.maps:
                m = rho(q)
                det = m.det()
                ok &= det == rho.embed_scalar(norm_q)
                if invertible:
                    v = tree.vertex_from_matrix(m)
                    ok &= v == tree.act(m, base)
                    # d(g.v0, v0) has the parity of the valuation of det g
                    ok &= (tree.distance(v, base) - valuation(det, zero)) % 2 == 0
        return ok

    def traced_op(self):
        batch = self._batch(self.trace_rng)
        seconds, ok, summary = traced_call(lambda: self.op(batch))
        return seconds, ok, summary, 0, {}

    def peak_rss_mb(self) -> float:
        return _max_rss_mb(resource.RUSAGE_SELF)


WORKLOADS = {w.name: w for w in (VerifyCli, BallR5, ArithMix)}
