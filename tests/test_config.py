"""The one tolerance record: every threshold is read from ``config`` at call
time, so one rebinding of ``config.TOLERANCES`` reaches every reader."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import crownlab
from conftest import rot2
from crownlab import config
from crownlab.errors import DomainExitError, NearSingularMinorError
from crownlab.growth import component_scales_batch, sweep_components
from crownlab.iwasawa import decompose_path, domain_test
from crownlab.liegroup import PElement
from crownlab.numkernel import group_exp, sym_ldl
from crownlab.prinseries import sl2_iwasawa_closed

PI = math.pi
X2 = PElement(np.diag([PI / 4, -PI / 4]))
THETA, T = PI / 4, 0.9


def inside_by_route() -> dict[str, bool]:
    """Whether each floor route keeps the SL(2) corner point exp(-i T x) k
    inside the domain; its smallest minor |Delta_1| is cos(0.45 pi) = 0.156."""
    k = rot2(THETA)
    g = group_exp(X2.matrix, -1j * T) @ k
    inside = {
        "domain_test": domain_test(g)[0],
        "component_scales_batch": bool(component_scales_batch(g[np.newaxis])["ok"][0]),
    }
    for name, route, error in (
        ("sym_ldl", lambda: sym_ldl(g.T @ g), NearSingularMinorError),
        ("decompose_path", lambda: decompose_path(X2, k, T), DomainExitError),
        ("sl2_iwasawa_closed", lambda: sl2_iwasawa_closed(THETA, T), DomainExitError),
    ):
        try:
            route()
            inside[name] = True
        except error:
            inside[name] = False
    return inside


def test_one_record_moves_every_floor_route(monkeypatch):
    assert all(inside_by_route().values())
    # 0.2 max(1, ||S||_F) is above 0.156 at the point, and the path floor
    # 0.2 e^{0.45 pi} = 0.82 is crossed part way along both paths
    raised = dataclasses.replace(config.TOLERANCES, minor_floor_rel=0.2)
    monkeypatch.setattr(config, "TOLERANCES", raised)
    assert not any(inside_by_route().values())


def test_boundary_check_reads_the_record(monkeypatch):
    # rho = pi/2 - 2e-9 is off the boundary by the default 1e-12, on it by 1e-8
    near = PElement(np.diag([PI / 4 - 1e-9, -PI / 4 + 1e-9]))
    with pytest.raises(ValueError, match="rho"):
        sweep_components(near, [0.5], n_haar=4, torus_grid=0, seed=0)
    loose = dataclasses.replace(config.TOLERANCES, boundary_rho=1e-8)
    monkeypatch.setattr(config, "TOLERANCES", loose)
    assert len(sweep_components(near, [0.5], n_haar=4, torus_grid=0, seed=0)) == 1


def _functions(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield from (f for f in vars(obj).values() if inspect.isfunction(f))
        elif inspect.isfunction(obj):
            yield obj


def test_no_function_takes_a_tol_parameter():
    modules = [
        importlib.import_module(f"crownlab.{info.name}")
        for info in pkgutil.iter_modules(crownlab.__path__)
    ]
    offenders = [
        f"{fn.__module__}.{fn.__qualname__}"
        for module in modules
        for fn in _functions(module)
        if "tol" in inspect.signature(fn).parameters
    ]
    assert len(modules) >= 10
    assert offenders == []
