"""The layers the traced run measures.

Each layer is a module of cremona_kit.  The traced run wraps the listed
functions from outside the program (see tracer.py) and reports, per
function, `<layer>.<function>.calls` and `<layer>.<function>.self_s`, per
layer `<layer>.errors`, and the counts below, which are read off the
functions' outputs.  Which end-to-end metric each layer should move, and
on which workload, is tabled in README.md.
"""

LAYERS = {
    "fields": (
        "is_irreducible",
        "find_irreducible",
        "factor_over_prime_field",
        "irreducible_check",
        "minimal_polynomial",
        "Poly.pow_mod",
    ),
    "linalg": ("solve", "inv3", "nullspace"),
    "orbits": (
        "enumerate_point_orbits",
        "pgl3_classify",
        "pgl3_matrices",
        "match_transform",
        "materialize_points",
        "roots_in_field",
        "general_position_check",
    ),
    "catalog": ("cb_class_key", "link_validate"),
    "linsys": ("push_type2", "push_oracle", "lambda_bound"),
    "rewrite": ("reduce_relation", "reorder_by_depth", "word_validate", "fiber_traces"),
    "freeprod": ("homo_eval", "homo_refined_eval", "fp_normalize"),
    "constructions": (
        "c5_big_link",
        "c6_big_link",
        "dejonquieres_decompose",
        "conjugate_to_p2",
        "refined_target_report",
    ),
    "cli": ("main",),
}

# (name, unit, better) of the counts taken from outputs
DERIVED = (
    ("fields.find_irreducible.hit_ratio", "ratio", "higher"),
    ("fields.irreducible_check.Irreducible", "count", "higher"),
    ("fields.irreducible_check.Reducible", "count", "higher"),
    ("fields.irreducible_check.Unverified", "count", "lower"),
    ("fields.irreducible_check.unverified_reducible", "count", "lower"),
    ("orbits.pgl3_classify.orbits_in", "count", "higher"),
    ("orbits.pgl3_classify.classes_out", "count", "higher"),
    ("orbits.match_transform.found_ratio", "ratio", "higher"),
    ("linsys.push.mismatches", "count", "lower"),
    ("rewrite.reduce_relation.letters_in", "count", "higher"),
    ("rewrite.reduce_relation.stuck", "count", "lower"),
    ("rewrite.moves.cancel", "count", "lower"),
    ("rewrite.moves.commute", "count", "lower"),
    ("rewrite.moves.drop-marker", "count", "lower"),
    ("rewrite.moves.fuse-marker", "count", "lower"),
    ("rewrite.reorder_by_depth.moves", "count", "lower"),
    ("freeprod.homo_eval.observer_calls", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.exit.0", "count", "higher"),
    ("cli.exit.1", "count", "lower"),
    ("cli.exit.2", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# Home/bypass shares of wrapped self time: (layers, home workload, least
# share there, bypass workload, largest share there).
HOME_BYPASS = (
    (("fields",), "algebra", 0.50, "relators", 0.05),
    (("orbits", "catalog"), "census", 0.50, "algebra", 0.05),
    (("rewrite", "freeprod"), "relators", 0.50, "census", 0.05),
)


def function_metrics():
    for layer, funcs in LAYERS.items():
        for func in funcs:
            yield f"{layer}.{func}.calls", "count", "lower"
            yield f"{layer}.{func}.self_s", "s", "lower"
        yield f"{layer}.errors", "count", "lower"


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    return list(function_metrics()) + list(DERIVED)
