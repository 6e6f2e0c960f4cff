"""Call counts and self time at the public functions of each quatlat layer.

A layer is one module of the package.  `Tracer.install` wraps every public
function and method the module defines, then rebinds *every* name that
refers to an original: a function imported with `from .binpoly import clgcd`
or re-exported by the package is a separate binding, and a call through an
unpatched binding would escape the count.  After patching, install fails if
anything but the tracer itself still refers to an original (a function kept
in a dict, a closure or a default argument), as reported by the garbage
collector.

Each wrapper opens a span.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all
wrappers add up to the traced wall time without double counting.  Time in
unwrapped helpers goes to the nearest wrapped caller.  Calls are also
counted per direct caller, which is how "products made by ball_check" is
told apart from products made while building the lattice.

The wrappers live only in this benchmark; nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "quatlat"
LAYERS = (
    "binpoly",
    "rational",
    "places",
    "quaternion",
    "embeddings",
    "tree",
    "lattice",
    "squares",
    "localperm",
    "presentations",
    "smith",
    "certify",
    "invariants",
    "suite",
)

# Operators a layer implements by hand (dataclass-generated dunders such as
# __init__, __eq__ and __hash__ are left alone).
_OPERATORS = frozenset(
    ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__divmod__", "__floordiv__", "__mod__", "__call__")
)

# RationalFunction.__post_init__ reduces every new fraction; its wrapper also
# records what the reduction achieved (RationalStats)
POST_INIT = "rational.RationalFunction.__post_init__"

# Constant-time field tests; wrapping them would mostly measure the wrapper.
_ACCESSORS = frozenset(("is_zero", "is_one", "is_poly", "is_scalar", "coefficient", "trailing_zeros", "__bool__"))


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


class RationalStats:
    """What the reductions in RationalFunction.__post_init__ achieved."""

    def __init__(self) -> None:
        self.reductions = 0  # constructions with a nonzero numerator: clgcd runs
        self.changed = 0  # ... where the gcd was not 1, so the fraction shrank
        self.den_one = 0  # ... whose reduced denominator is 1

    def observe(self, post_init):
        def observed(value):
            before = value.num.bits
            post_init(value)
            if before:
                self.reductions += 1
                if value.num.bits != before:
                    self.changed += 1
                if value.den.bits == 1:
                    self.den_one += 1

        return observed


class Tracer:
    """Install with `install()`, run the traced work, read, then `uninstall()`."""

    def __init__(self) -> None:
        self.names: list[str] = []  # "module.qualname" of each wrapped function
        self.self_s: list[float] = []
        self.by_caller: list[list[int]] = []  # by_caller[callee][caller]; caller n is the root
        self.rational = RationalStats()
        self._caches: list[tuple[str, object, int, int]] = []  # (name, lru wrapper, hits, misses at install)
        self._patches: list[tuple[object, str, object]] = []
        self._frames: list[list] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals, seen = [], set()  # each function once, even if bound under several names
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for qualname, original in _targets(layer, mod):
                if id(original) not in seen:  # __sub__ = __add__
                    seen.add(id(original))
                    originals.append(original)
                    self.names.append(f"{layer}.{qualname}")
                    if _is_lru(original):
                        info = original.cache_info()
                        self._caches.append((self.names[-1], original, info.hits, info.misses))
        n = len(originals)
        self.self_s = [0.0] * n
        self.by_caller = [[0] * (n + 1) for _ in range(n)]
        self._frames = [[n, 0.0]]
        wrappers, helpers = {}, []
        for i, original in enumerate(originals):
            fn = original
            if self.names[i] == POST_INIT:
                fn = self.rational.observe(original)
                helpers.append(fn)
            wrappers[id(original)] = self._span(fn, i, original)

        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
        ours = [originals, *self._patches, *self._caches, *wrappers.values(), *helpers]
        stray = _stray_references(originals, ours)
        if stray:
            self.uninstall()
            raise RuntimeError(f"tracer left originals reachable from: {', '.join(stray)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _span(self, fn, i: int, original):
        self_s = self.self_s
        by_caller = self.by_caller[i]
        frames = self._frames

        def span(*args, **kwargs):
            parent = frames[-1]
            by_caller[parent[0]] += 1
            frame = [i, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                self_s[i] += elapsed - frame[1]
                parent[1] += elapsed

        functools.update_wrapper(span, original, updated=())
        return span

    # -- reading -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every wrapped function's call count: the exact, repeatable part."""
        return {name: sum(row) for name, row in zip(self.names, self.by_caller)}

    def _calls_from(self, name: str, caller: str) -> int:
        if name not in self.names or caller not in self.names:
            return 0
        return self.by_caller[self.names.index(name)][self.names.index(caller)]

    def summary(self) -> dict:
        """Plain-data totals since install, mergeable across ops and processes."""
        caches = {}
        for name, cache, hits, misses in self._caches:
            info = cache.cache_info()
            caches[name] = [info.hits - hits, info.misses - misses]
        r = self.rational
        return {
            "calls": self.counts(),
            "self_s": dict(zip(self.names, self.self_s)),
            "ball_products": self._calls_from("quaternion.Quaternion.__mul__", "certify.ball_check"),
            "rational": [r.reductions, r.changed, r.den_one],
            "caches": caches,  # hits and misses of each lru cache the tracer wrapped
        }


def _targets(layer: str, mod):
    """(qualname, function) of every public function, lru-cached function and
    hand-written operator `mod` defines, and of the lru caches its
    module-level instances hold (rho_y.embed_scalar, rho_t.embed_scalar)."""
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj):
            if obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    qualname = f"{name}.{attr}"
                    public = not attr.startswith("_") and attr not in _ACCESSORS
                    wanted = public or attr in _OPERATORS or f"{layer}.{qualname}" == POST_INIT
                    if inspect.isfunction(member) and wanted:
                        yield qualname, member
        elif inspect.isfunction(obj) or _is_lru(obj):
            if obj.__module__ == mod.__name__:
                yield name, obj
        elif type(obj).__module__ == mod.__name__ and hasattr(obj, "__dict__"):
            for attr, member in vars(obj).items():
                if _is_lru(member):
                    yield f"{name}.{attr}", member


def _owners() -> list:
    """Every namespace that can hold a binding: the package's modules, its
    classes, and the attribute dicts of its module-level instances."""
    owners, seen = [], set()
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for obj in (mod, *vars(mod).values()):
            if id(obj) not in seen and _in_package(obj):
                seen.add(id(obj))
                owners.append(obj)
    return owners


def _in_package(obj) -> bool:
    prefix = PACKAGE + "."
    if inspect.ismodule(obj):
        return obj.__name__ == PACKAGE or obj.__name__.startswith(prefix)
    if inspect.isclass(obj):
        return obj.__module__.startswith(prefix)
    if inspect.isfunction(obj) or _is_lru(obj):
        return False
    return hasattr(obj, "__dict__") and type(obj).__module__.startswith(prefix)


def _stray_references(originals: list, ours: list) -> list[str]:
    """Whatever still refers to an original besides the tracer's own objects
    and running frames: a binding in a container, closure or default
    argument that patching the namespaces missed, through which calls would
    escape the count."""
    expected = set()
    for obj in ours:
        expected.add(id(obj))
        if inspect.isfunction(obj):
            expected.add(id(obj.__dict__))  # update_wrapper's __wrapped__
            expected.update(id(cell) for cell in obj.__closure__ or ())
    return [
        f"{type(ref).__name__} {str(ref)[:80]}"
        for ref in gc.get_referrers(*originals)
        if id(ref) not in expected and not inspect.isframe(ref)
    ]
