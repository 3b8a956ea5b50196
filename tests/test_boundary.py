"""The library's array boundary: `norm`, `ortho_exact`, `ortho_ns`,
`top_singular_alignment` and `apply_group_step` on empty, 1 x n, n x 1,
non-contiguous, integer, NaN-bearing and inf-bearing inputs. Each call
either returns finite float64 output of its input's shape or raises
ValueError or FloatingPointError; any other exception, a warning, a write
to the input or another output fails."""

import numpy as np
import pytest

from teon.diagnostics import top_singular_alignment
from teon.norms import norm
from teon.optim import OptimizerState, ParamGroup, UpdateClass, UpdatePolicy, apply_group_step
from teon.ortho import OrthoScheme, ortho_exact, ortho_ns


def _planted(value):
    a = np.random.default_rng(1).standard_normal((3, 2))
    a[1, 0] = value
    return a


INPUTS = {
    "empty": lambda: np.zeros((0, 3)),
    "row": lambda: np.random.default_rng(2).standard_normal((1, 4)),
    "column": lambda: np.random.default_rng(3).standard_normal((4, 1)),
    "non_contiguous": lambda: np.random.default_rng(4).standard_normal((4, 6))[:, ::2],
    "integer": lambda: np.arange(9).reshape(3, 3),
    "nan": lambda: _planted(np.nan),
    "inf": lambda: _planted(np.inf),
    "-inf": lambda: _planted(-np.inf),
}


def _norm(a):
    return np.array([norm(a[None]), norm(a[None, None], 1, dual=True)[0]])


def _alignment(a):
    (record,) = top_singular_alignment({"a": a, "b": a.copy()}, [("p", "a", "b")], step=0)
    return np.array([record.left_align, record.right_align, record.sigma_gap])


def _group_step(a):
    # `a` is a lone matrix's gradient, and its dtype the weights': an integer
    # weight arena would take the step truncated
    cls = UpdateClass((ParamGroup("w", ("w",), (a.shape,), UpdatePolicy.muon(0.1)),))
    params = {"w": np.zeros_like(a)[None, None]}
    apply_group_step(params, {"w": a[None, None]}, cls, {"w": OptimizerState()})
    return params["w"][0, 0]


FUNCTIONS = {
    "norm": (_norm, (2,)),
    "ortho_exact": (ortho_exact, None),
    "ortho_ns": (lambda a: ortho_ns(a, OrthoScheme.newton_schulz(5, preset="jordan")), None),
    "top_singular_alignment": (_alignment, (3,)),
    "apply_group_step": (_group_step, None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("function", list(FUNCTIONS))
def test_an_array_entry_point_returns_finite_output_of_its_shape_or_raises(function, kind):
    fn, shape = FUNCTIONS[function]
    a = INPUTS[kind]()
    before = a.copy()
    try:
        out = fn(a)
    except (ValueError, FloatingPointError):
        pass
    else:
        assert out.shape == (a.shape if shape is None else shape)
        assert out.dtype == np.float64 and np.isfinite(out).all()
    assert np.array_equal(a, before, equal_nan=True)  # the input is never written
