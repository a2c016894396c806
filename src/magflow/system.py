"""The magnetic system: metric + closed 2-form, the Lorentz force operator,
its covariant derivative, closedness checking, and speed rescaling.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NonpositiveSpeed
from .forms import TwoFormField
from .geometry import (ChartSpec, MetricField, PointGeometry, _closure,
                       _fragment)

__all__ = ["MagneticSystem", "closedness_residual"]


def closedness_residual(sigma: TwoFormField, x) -> float:
    """Max-norm of (d sigma)_kij = d_k s_ij + d_i s_jk + d_j s_ki at x."""
    ds = sigma.dsigma(x)
    d = (np.einsum("ijk->kij", ds) + np.einsum("jki->kij", ds)
         + np.einsum("kij->kij", ds))
    return float(np.max(np.abs(d)))


def _times_c(n, c):
    return [f"d{i} = {c} * d{i}" for i in range(n)]


def _over_c(n, c):
    return [f"d{i} = d{i} / {c}" for i in range(n)]


class MagneticSystem:
    """A chart, a metric, a closed 2-form, and an optional custom vertical
    field for general semi-spray flows (defaults to the Lorentz force Yv).

    A form built from a metric must be built from this system's metric, so
    that it reads the coefficients the system evaluates; one built from any
    other metric raises `ValueError`.  A form that needs another metric's
    coefficients is given as a closure of x alone, built from no metric.
    """

    def __init__(self, chart: ChartSpec, metric: MetricField,
                 sigma: TwoFormField,
                 vertical_field: Optional[Callable] = None):
        if sigma.metric is not None and sigma.metric is not metric:
            raise ValueError("the 2-form is built from another metric than "
                             "the system's")
        self.chart = chart
        self.metric = metric
        self.sigma = sigma
        self.vertical_field = vertical_field
        self._kernels = None        # (key, RK4 kernels) of `flow._kernels`

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def is_magnetic(self) -> bool:
        """True when the vertical field is the default Lorentz force."""
        return self.vertical_field is None

    def geometry(self, x) -> PointGeometry:
        """The local geometry at x, shared by everything computed there."""
        return PointGeometry(self.metric, x, self.sigma, self.chart)

    # -- Lorentz force ----------------------------------------------------

    def lorentz(self, x) -> np.ndarray:
        """Y with g(Yv, w) = sigma(v, w); as a matrix, g Y = sigma^T."""
        return self.geometry(x).lorentz()

    def dlorentz(self, x) -> np.ndarray:
        """dY[:, :, k] = d_k Y, from d_k(g Y) = d_k sigma^T."""
        return self.geometry(x).dlorentz()

    def nabla_lorentz(self, x, w) -> np.ndarray:
        """(nabla_w Y) = d_w Y + [Gamma(w), Y]."""
        w = np.asarray(w, dtype=float)
        geo = self.geometry(x)
        Y = geo.lorentz()
        dY = np.einsum("ijk,k->ij", geo.dlorentz(Y), w)
        Gw = np.einsum("ikj,k->ij", geo.christoffel(), w)
        return dY + Gw @ Y - Y @ Gw

    # -- vertical field ---------------------------------------------------

    def x_vertical(self, x, v) -> np.ndarray:
        if self.vertical_field is not None:
            return np.asarray(self.vertical_field(x, v), dtype=float)
        return self.lorentz(x) @ np.asarray(v, dtype=float)

    # -- rescaling --------------------------------------------------------

    def rescale(self, s: float) -> "MagneticSystem":
        """The system (s^-2 g, s^-2 sigma), whose unit-speed flow reproduces
        the original flow at speed s."""
        if not s > 0:
            raise NonpositiveSpeed(f"speed must be positive, got {s}")
        if s == 1.0:
            return self
        c = float(s) ** -2            # a Python float, for the float closures
        m, sg = self.metric, self.sigma
        # -Gamma(v, v) and Yv are unchanged, only g's diagonal scales: the
        # spray's fragment gains a last piece d_i = c d_i, and the
        # magnetic_acc's a first piece d_i = d_i / c; a form built from the
        # metric reads the original coefficients g / c
        spray, magnetic_acc = m.spray, sg.magnetic_acc
        if spray is not None:
            spray = _closure("spray", self.dim, *_fragment(spray, "spray"),
                             (_times_c, (c,)))
        if magnetic_acc is not None:
            magnetic_acc = _closure("magnetic_acc", self.dim, (_over_c, (c,)),
                                    *_fragment(magnetic_acc, "magnetic_acc"))
        metric = MetricField(lambda x: c * m.raw(x),
                             dg=lambda x: c * m.dg(x),
                             d2g=lambda x: c * m.d2g(x),
                             chart=self.chart,
                             broadcasts=m.broadcasts, spray=spray)
        sigma = TwoFormField(
            lambda x, g: c * sg.at(x, g / c),
            dsigma=lambda x, g, dg: c * sg.dsigma_at(x, g / c, dg / c),
            chart=self.chart, metric=metric, broadcasts=sg.broadcasts,
            magnetic_acc=magnetic_acc)
        return MagneticSystem(self.chart, metric, sigma,
                              vertical_field=self.vertical_field)
