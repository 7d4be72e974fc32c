"""Scalar functionals and identity monitors evaluated on flow snapshots.

All quantities live on the enstrophy side of the bookkeeping: E denotes
the squared L2 norm of the strain (equal to half the squared L2 norm of
the vorticity and of the full gradient).  The budget checked here is

    dE/dt = -2 nu |S|_{H1}^2 - 4 int det(S) + <-lap u, f>,

with the vortex-stretching equivalences

    <S, w x w> = -4 int det(S) = -(4/3) int tr(S^3),

and the middle-eigenvalue machinery: pointwise -det(S) <= |S|^2 l2+ / 2,
the growth inequality dE/dt <= -nu |S|_{H1}^2 + 2 int l2+ |S|^2 + |f|^2/2,
and the q = infinity Gronwall envelope E(t) <= E(0) exp(2 int |l2+|_inf).

Exponent pairs always satisfy 2/p + 3/q = 2, i.e. p = 2q/(2q - 3); the
borderline exponent q = 3/2 is only ever monitored, never integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import snapshots, solver, sym3
from .exceptions import InvalidExponentError, InvalidInputError
from .numerics import (check_uniform_spacing, cumulative_trapezoid,
                       fd4_derivative)
from .spectral import (Grid, directional_strain, plancherel_sum, sobolev_inner,
                       sobolev_norm_sq, strain_frobenius_sq, sym_gradient,
                       vorticity)

# Coefficient of the cubic enstrophy-growth monitor (whole-space sharp
# Sobolev value; on the torus it is monitored, never asserted).
CUBIC_GROWTH_COEFF = 1.0 / (1458.0 * math.pi ** 4)

# Reference level 3*(pi/2)^(4/3) for the borderline L^{3/2} monitor.
BORDERLINE_REFERENCE = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)

DEFAULT_Q_LIST = (np.inf, 2.0, 1.5)

CSV_COLUMNS = ("t", "E", "diss_H1", "det_int", "tr3_int", "vortex_stretch",
               "lam2p_Linf", "lam2p_L2", "lam2p_L32", "crit_int_qinf",
               "crit_int_q2", "budget_resid", "vs_ident_resid", "gcon_margin",
               "cubic_margin", "force_term")


def pointwise_strain_analysis(grid: Grid, u_hat):
    """(strain, eig): the strain at every grid point of the velocity whose
    kz in [0, n/2] half-spectrum is u_hat, and its sym3.eigenvalues."""
    strain = sym3.TraceFreeSym3.from_components(grid.ifft(sym_gradient(grid, u_hat)))
    return strain, sym3.eigenvalues(strain)


def check_q(q) -> None:
    """Reject an L^q exponent outside [3/2, infinity] (NaN included)."""
    if not q >= 1.5:
        raise InvalidExponentError(f"q must be >= 3/2, got {q}")


def lq_norm(grid: Grid, scalar_field, q) -> float:
    """Discrete L^q norm of a non-negative scalar field.

    q ranges over [3/2, infinity]; q = 3/2 exists solely for the
    borderline monitor, every criterion integral requires q > 3/2.  Any
    finite q but the written 2 and 3/2 sums powers of the field over its peak.
    """
    check_q(q)
    field_arr = np.asarray(scalar_field, dtype=float)
    low = field_arr.min()
    if low < 0.0:
        if low < -1e-12 * max(np.abs(field_arr).max(), 1.0):
            raise InvalidInputError("L^q norms here expect a non-negative field")
        field_arr = np.maximum(field_arr, 0.0)
    if np.isinf(q):
        return float(field_arr.max())
    if q == 1.5:  # the borderline exponent: a general pow costs 10x a sqrt
        powered = field_arr * np.sqrt(field_arr)
    elif q == 2.0:
        powered = field_arr ** q
    else:  # max (sum (f/max)^q w)^(1/q): no overflow at a large q
        peak = float(field_arr.max())
        if peak == 0.0:
            return 0.0
        return peak * float(np.sum((field_arr / peak) ** q) * grid.quad_weight) ** (1.0 / q)
    return float(np.sum(powered) * grid.quad_weight) ** (1.0 / q)


def criterion_exponent(q) -> float:
    """Time exponent p paired with the space exponent q via 2/p + 3/q = 2."""
    if q <= 1.5:
        raise InvalidExponentError(f"criterion exponent requires q > 3/2, got {q}")
    if np.isinf(q):
        return 1.0
    return 2.0 * q / (2.0 * q - 3.0)


def vortex_stretch_identity_residual(vortex_stretch, det_integral, tr3_integral,
                                     cubic_scale: float) -> float:
    """Max pairwise relative deviation among <S, w x w>, -4 int det,
    and -(4/3) int tr(S^3).

    cubic_scale (typically int |S|^3) floors the normalization: the
    three integrals can vanish by symmetry while the field is large, in
    which case agreement is judged against the field's natural cubic
    magnitude instead of 0/0 noise.
    """
    values = (float(vortex_stretch), -4.0 * float(det_integral),
              -4.0 / 3.0 * float(tr3_integral))
    scale = max(max(abs(v) for v in values), abs(cubic_scale))
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def gronwall_envelope(times, enstrophy, linf_norms):
    """Enstrophy envelope E(0) exp(2 int |l2+|_inf dt); only q = infinity
    carries an explicit constant (2) to assert."""
    e = np.asarray(enstrophy, dtype=float)
    exponent = 2.0 * cumulative_trapezoid(np.asarray(linf_norms, dtype=float), times)
    return np.full_like(e, e[0]) * np.exp(exponent)


def directional_criterion(grid: Grid, u_hat, regions, directions, q) -> float:
    """Assemble |S v|_{L^q} over a piecewise-constant direction field.

    regions is a sequence of boolean masks that must partition the grid;
    directions the matching unit 3-vectors.  The field v they make goes
    to spectral.directional_strain and |S v| to lq_norm.  The result
    dominates the L^q norm of |lambda2| and hence of l2+.
    """
    if len(regions) != len(directions):
        raise InvalidInputError("regions and directions must pair up")
    check_q(q)
    cover = np.zeros((grid.n,) * 3, dtype=int)
    v_field = np.zeros((3,) + cover.shape)
    for mask, v in zip(regions, directions):
        mask, v = np.asarray(mask), np.asarray(v, dtype=float)
        if mask.shape != cover.shape or mask.dtype != bool:
            raise InvalidInputError("each region must be a boolean grid mask")
        if v.shape != (3,):
            raise InvalidInputError(f"each direction must be a 3-vector, got shape {v.shape}")
        cover += mask
        v_field[:, mask] = v[:, None]
    if cover.min() < 1 or cover.max() > 1:
        raise InvalidInputError("regions must partition the grid (no gaps, no overlap)")
    sv = directional_strain(grid, u_hat, v_field)  # checks |v| = 1
    return lq_norm(grid, np.sqrt(sv[0] ** 2 + sv[1] ** 2 + sv[2] ** 2), q)


@dataclass
class DiagnosticsRecord:
    """One time sample of every scalar functional tracked during a run."""

    t: float
    enstrophy: float                    # |S|_{L2}^2
    dissipation: float                  # |S|_{H1}^2
    det_integral: float
    tr3_integral: float
    vortex_stretch: float               # <S, w x w>
    strain_cubed: float                 # int |S|^3
    lambda2_norms: dict                 # q -> |l2+|_{L^q}
    lambda2_weighted: float             # int l2+ |S|^2
    force_term: float                   # <-lap u, f>
    force_norm_sq: float                # |f|_{L2}^2
    criterion_integrals: dict = field(default_factory=dict)
    budget_residual: float = math.nan
    vortex_stretch_residual: float = math.nan
    gcon_margin: float = math.nan
    cubic_margin: float = math.nan


class RecordCollector:
    """Streaming diagnostics: feed solver states, then finalize().

    Per-snapshot scalars are computed on the fly so full fields never
    accumulate; finalize() fills in the series-level columns.

    A record reads state.u_hat, the kz >= 0 half of the velocity
    spectrum, and the force, a half-spectrum too: strain and vorticity
    go to physical space by c2r transforms, and the spectral sums count
    each half-plane for its mirror image.  E and diss_H1 are
    two Plancherel sums over one per-mode strain Frobenius norm.
    """

    def __init__(self, grid: Grid, q_list=DEFAULT_Q_LIST, force=None,
                 viscosity: float = 1.0):
        self.grid = grid
        self.q_list = tuple(dict.fromkeys(tuple(q_list) + tuple(DEFAULT_Q_LIST)))
        for q in self.q_list:
            check_q(q)
        self.force = force
        self.viscosity = viscosity
        self.records: list[DiagnosticsRecord] = []

    def __call__(self, state) -> DiagnosticsRecord:
        grid = self.grid
        u_half = state.u_hat
        s_half = sym_gradient(grid, u_half)
        m = sym3.TraceFreeSym3.from_components(grid.ifft(s_half))
        eig = sym3.eigenvalues(m)
        w = grid.ifft(vorticity(grid, u_half))
        stretch = (m.m11 * w[0] ** 2 + m.m22 * w[1] ** 2 + m.m33 * w[2] ** 2
                   + 2.0 * (m.m12 * w[0] * w[1] + m.m13 * w[0] * w[2]
                            + m.m23 * w[1] * w[2]))

        force_term = 0.0
        force_sq = 0.0
        if self.force is not None:
            f_half = self.force(state.t)
            if f_half is not None:
                force_term = sobolev_inner(grid, u_half, f_half, 1.0)
                force_sq = sobolev_norm_sq(grid, f_half, 0.0)

        lam2p = eig.lambda2_plus
        frob_sq = strain_frobenius_sq(s_half)
        record = DiagnosticsRecord(
            t=state.t,
            enstrophy=plancherel_sum(grid, frob_sq, 0.0),
            dissipation=plancherel_sum(grid, frob_sq, 1.0),
            det_integral=grid.integrate(eig.det),
            tr3_integral=grid.integrate(sym3.tr_cubed(m)),
            vortex_stretch=grid.integrate(stretch),
            strain_cubed=grid.integrate(eig.norm_sq * np.sqrt(eig.norm_sq)),
            lambda2_norms={q: lq_norm(grid, lam2p, q) for q in self.q_list},
            lambda2_weighted=grid.integrate(lam2p * eig.norm_sq),
            force_term=force_term,
            force_norm_sq=force_sq,
        )
        record.vortex_stretch_residual = vortex_stretch_identity_residual(
            record.vortex_stretch, record.det_integral, record.tr3_integral,
            cubic_scale=record.strain_cubed)
        self.records.append(record)
        return record

    def finalize(self) -> list[DiagnosticsRecord]:
        """Fill in the series columns: the criterion integrals at any
        spacing; from one fourth-order dE/dt on at least 5 uniformly spaced
        records, the budget residual, growth-inequality margin and cubic
        monitor (NaN otherwise)."""
        records = self.records
        if not records:
            return records
        times = np.array([r.t for r in records])
        for q in (np.inf, 2.0):
            norms = np.array([r.lambda2_norms[q] for r in records])
            series = cumulative_trapezoid(norms ** criterion_exponent(q), times)
            for r, value in zip(records, series):
                r.criterion_integrals[q] = float(value)
        try:
            h = check_uniform_spacing(times)
        except InvalidInputError:
            return records  # the series-level columns stay NaN
        nu = self.viscosity
        e = np.array([r.enstrophy for r in records])
        diss = np.array([r.dissipation for r in records])
        det_int = np.array([r.det_integral for r in records])
        force = np.array([r.force_term for r in records])
        dedt = fd4_derivative(e, h)
        # determinant form of the budget, relative to its largest term
        scale = np.maximum.reduce([np.abs(dedt), 2.0 * nu * diss,
                                   4.0 * np.abs(det_int), np.abs(force)])
        budget = (dedt + 2.0 * nu * diss + 4.0 * det_int - force) / np.maximum(scale, 1e-300)
        # slack of the growth inequality, bounded below by nu diss
        gcon = (-nu * diss + 2.0 * np.array([r.lambda2_weighted for r in records])
                + 0.5 * np.array([r.force_norm_sq for r in records])) - dedt
        # whole-space constant, monitored only; under u -> nu u(x, nu t), E
        # scales as nu^2 and dE/dt as nu^3, hence the nu^-3
        cubic = CUBIC_GROWTH_COEFF / nu ** 3 * e ** 3 - dedt
        for r, b, g, c in zip(records, budget, gcon, cubic):
            r.budget_residual = float(b)
            r.gcon_margin = float(g)
            r.cubic_margin = float(c)
        return records


def run_with_diagnostics(config, u0_hat, grid: Grid | None = None,
                         keep_states: bool = False):
    """Integrate a configured run with the record collector attached."""
    if grid is None:
        grid = Grid(config.n)
    force = solver.make_force(grid, config.force)
    collector = RecordCollector(grid, force=force, viscosity=config.viscosity)
    result = solver.run(config, u0_hat, grid=grid, on_record=collector,
                        keep_states=keep_states, force=force)
    return result, collector.finalize()


def write_csv(records, path) -> None:
    """Write the per-record CSV with the fixed column contract."""
    snapshots.write_rows(path, CSV_COLUMNS, (
        (r.t, r.enstrophy, r.dissipation, r.det_integral, r.tr3_integral,
         r.vortex_stretch, r.lambda2_norms[np.inf], r.lambda2_norms[2.0],
         r.lambda2_norms[1.5], r.criterion_integrals.get(np.inf, math.nan),
         r.criterion_integrals.get(2.0, math.nan), r.budget_residual,
         r.vortex_stretch_residual, r.gcon_margin, r.cubic_margin, r.force_term)
        for r in records))
