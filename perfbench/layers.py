"""The traced functions of each crownlab layer and the per-layer metrics
derived from their spans.

Layers are the package modules.  Each traced function is named
``<module>.<function>`` (``prinseries.ModeVector.evaluate`` for the one
method); its metrics are ``<name>.calls`` and ``<name>.self_s``.  The count
functions below add work counts taken from each call's arguments and return
value; ``bytes_computed`` is nodes x modes x 16 B of complex exponentials,
computed from the shapes, not measured.
"""

from __future__ import annotations

import math

QUADRATURE_CALLERS = ("prinseries.boundary_pairing", "prinseries.extended_norm_sq")


def _component_scales_batch(tr, args, kwargs, result):
    ok = result["ok"]
    tr.counts["growth.component_scales_batch.rows"] += int(ok.size)
    tr.counts["growth.component_scales_batch.ok_rows"] += int(ok.sum())


def _sweep_components(tr, args, kwargs, samples):
    for s in samples:
        tr.counts["growth.samples_used"] += s.samples_used
        tr.counts["growth.exits"] += s.exits
        for sup in (s.sup_kappa, s.sup_alpha, s.sup_eta):
            tr.counts["growth.log_sup_sum"] += math.log(sup)
            tr.counts["growth.log_sup_count"] += 1


def _leading_minors_batch(tr, args, kwargs, minors):
    tr.counts["iwasawa.leading_minors_batch.rows"] += minors.size // minors.shape[-1]


def _decompose_path(tr, args, kwargs, factors):
    tr.counts["iwasawa.path_points"] += factors.steps_used


def _domain_test(tr, args, kwargs, result):
    tr.counts["iwasawa.domain_exits"] += int(not result[0])


def _closed_components(tr, args, kwargs, result):
    nodes = int(result[0].size)
    tr.counts["prinseries._closed_components.nodes"] += nodes
    if tr.parent_name() in QUADRATURE_CALLERS:
        tr.counts["prinseries.quad_nodes"] += nodes


def _evaluate(tr, args, kwargs, values):
    evals = int(values.size) * len(args[0].modes)
    tr.counts["prinseries.ModeVector.evaluate.mode_evals"] += evals
    tr.counts["prinseries.ModeVector.evaluate.bytes_computed"] += 16 * evals


TARGETS = {
    "numkernel.principal_minors": None,
    "numkernel.sym_ldl": None,
    "numkernel.group_exp": None,
    "numkernel.hermitian_eigensystem": None,
    "numkernel.singular_values": None,
    "numkernel.sym_eig": None,
    "liegroup.haar_so": None,
    "liegroup.s_max": None,
    "iwasawa.leading_minors_batch": _leading_minors_batch,
    "iwasawa.decompose_path": _decompose_path,
    "iwasawa.domain_test": _domain_test,
    "weights.fundamental_profile": None,
    "weights.alpha_pow": None,
    "growth.component_scales_batch": _component_scales_batch,
    "growth.component_scales": None,
    "growth._pattern_search": None,
    "growth.sweep_components": _sweep_components,
    "growth.fit_blowup": None,
    "prinseries.boundary_pairing": None,
    "prinseries.extended_norm_sq": None,
    "prinseries.growth_exponent": None,
    "prinseries._closed_components": _closed_components,
    "prinseries.ModeVector.evaluate": _evaluate,
}


COUNT_NAMES = frozenset(
    {
        "growth.component_scales_batch.rows",
        "growth.samples_used",
        "growth.exits",
        "iwasawa.leading_minors_batch.rows",
        "iwasawa.path_points",
        "iwasawa.domain_exits",
        "prinseries._closed_components.nodes",
        "prinseries.quad_nodes",
        "prinseries.ModeVector.evaluate.mode_evals",
        "prinseries.ModeVector.evaluate.bytes_computed",
    }
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, names, extra: dict) -> dict[str, float]:
    """Value of every named per-layer metric; ``extra`` supplies run-level ones.

    Ratios over zero calls read 0.  An unknown name raises KeyError, so the
    metric list and this derivation cannot drift apart silently.
    """
    calls, self_s = tracer.totals()
    counts = tracer.counts
    derived = {
        "growth.component_scales_batch.rows_per_call": _ratio(
            counts["growth.component_scales_batch.rows"], calls["growth.component_scales_batch"]
        ),
        "growth.component_scales_batch.ok_frac": _ratio(
            counts["growth.component_scales_batch.ok_rows"], counts["growth.component_scales_batch.rows"]
        ),
        "growth.sweep_components.sup_log_mean": _ratio(
            counts["growth.log_sup_sum"], counts["growth.log_sup_count"]
        ),
        **extra,
    }
    out = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif prefix in TARGETS and stat == "calls":
            out[name] = calls[prefix]
        elif prefix in TARGETS and stat == "self_s":
            out[name] = self_s[prefix]
        elif name in COUNT_NAMES:
            out[name] = int(counts[name])
        else:
            raise KeyError(f"no derivation for per-layer metric {name!r}")
    return out

