"""Names, units and definitions of every metric the benchmark reports.

End-to-end metrics come from untraced runs; per-layer metrics from a traced
run (see tracer.py).  Per-layer values are per op: totals over the traced
ops divided by their number, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

# name -> unit; BENCHMARK.json declares the same names and units, with their
# bounds and directions (selftest.py checks that the two agree).
END_TO_END = {"op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# metric -> wrapped function whose calls it counts
CALLS = {
    "binpoly.clmul.calls": "binpoly.clmul",
    "binpoly.cldivmod.calls": "binpoly.cldivmod",
    "binpoly.clgcd.calls": "binpoly.clgcd",
    "rational.new.calls": "rational.RationalFunction.__post_init__",
    "places.valuation.calls": "places.valuation",
    "places.laurent_expand.calls": "places.laurent_expand",
    "quaternion.mul.calls": "quaternion.Quaternion.__mul__",
    "quaternion.rnorm.calls": "quaternion.Quaternion.rnorm",
    "quaternion.inverse.calls": "quaternion.Quaternion.inverse",
    "quaternion.canon.calls": "quaternion.Quaternion.projective_canon",
    "embeddings.rho.calls": "embeddings.EmbeddingMap.__call__",
    "embeddings.matmul.calls": "embeddings.Matrix2.__mul__",
    "tree.act.calls": "tree.act",
    "tree.vertex_from_matrix.calls": "tree.vertex_from_matrix",
    "tree.distance.calls": "tree.distance",
    "presentations.reidemeister_schreier.calls": "presentations.reidemeister_schreier",
}

# layers whose summed self time is reported as <layer>.self_s
LAYER_SELF = (
    "binpoly",
    "rational",
    "places",
    "quaternion",
    "embeddings",
    "tree",
    "squares",
    "localperm",
    "presentations",
    "smith",
    "invariants",
)

# single functions whose self time is reported as <function>.self_s
FUNCTION_SELF = (
    "certify.ball_check",
    "squares.build_structure",
    "localperm.local_group",
    "presentations.reidemeister_schreier",
    "presentations.abelianization",
    "smith.invariant_factors",
    "invariants.albanese_kernel_dim",
)

RATIOS = {
    # reductions in RationalFunction.__post_init__ where gcd(num, den) != 1
    "rational.gcd_nontrivial_ratio": "ratio",
    # reductions whose reduced denominator is 1
    "rational.den_one_ratio": "ratio",
    # hits / lookups of rho_y.embed_scalar and rho_t.embed_scalar, from cache_info()
    "embeddings.embed_scalar.hit_ratio": "ratio",
    # quaternion products made directly by ball_check / distinct elements found
    "certify.ball.mul_per_element": "mul/elem",
}

# CertificateResult.name of each certificate `quatlat verify` runs
CERTIFICATES = (
    "ramification",
    "discriminant",
    "v4-structure",
    "links",
    "local-permutation-groups",
    "stabilizer",
    "neighbors",
    "relators",
    "abelianization",
    "ball-check",
    "invariants",
    "albanese",
)


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    **{name: "count" for name in CALLS},
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    **{f"{fn}.self_s": "s" for fn in FUNCTION_SELF},
    **RATIOS,
    **{f"suite.{cert}.ms": "ms" for cert in CERTIFICATES},
    "trace.overhead_s": "s",
}


def merge(summaries: list[dict]) -> dict:
    """Sum tracer summaries (see Tracer.summary) of several traced ops."""
    total: dict = {"calls": {}, "self_s": {}, "ball_products": 0, "rational": [0, 0, 0], "caches": {}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["ball_products"] += s["ball_products"]
        total["rational"] = [a + b for a, b in zip(total["rational"], s["rational"])]
        for name, counts in s["caches"].items():
            total["caches"][name] = [a + b for a, b in zip(total["caches"].get(name, [0, 0]), counts)]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, ops: int, ball_elements: int, suite_ms: dict[str, float], overhead_s: float) -> dict:
    """Per-op per-layer metrics from a merged summary of `ops` traced ops.

    `ball_elements` is the total of distinct elements the traced ball checks
    found; `suite_ms` the mean elapsed_ms of each certificate.
    """
    calls, self_s = summary["calls"], summary["self_s"]
    values: dict[str, float] = {}
    for metric, fn in CALLS.items():
        values[metric] = calls.get(fn, 0) / ops
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer) / ops
    for fn in FUNCTION_SELF:
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0) / ops
    reductions, changed, den_one = summary["rational"]
    embed = [counts for name, counts in summary["caches"].items() if name.endswith(".embed_scalar")]
    hits, misses = sum(c[0] for c in embed), sum(c[1] for c in embed)
    values["rational.gcd_nontrivial_ratio"] = _ratio(changed, reductions)
    values["rational.den_one_ratio"] = _ratio(den_one, reductions)
    values["embeddings.embed_scalar.hit_ratio"] = _ratio(hits, hits + misses)
    values["certify.ball.mul_per_element"] = _ratio(summary["ball_products"], ball_elements)
    for cert in CERTIFICATES:
        values[f"suite.{cert}.ms"] = suite_ms.get(cert, 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

