"""Output checks for the benchmark workloads.

Every check returns a list of error strings; an empty list means the output
passed. Expected values are closed forms worked out here from a preset's
m, M, v, V, dk and dK, or properties the method must have (non-negativity,
the hard wall, unit probability, t2-invariant norms). Nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

GRID_NORM_TOL = 1e-4
CURVE_NORM_TOL = 1e-6
RELATIVE_TOL = 0.02
WIDTH_TOL = 1e-6
T2_INDEPENDENCE_TOL = 1e-6
MIRROR_VISIBILITY_MAX = 0.05
UNITARITY_TOL = 1e-6
WALL_CONTRAST_TOL = 1e-6
NORM_POINTS = 4001


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def split_velocities(p) -> tuple[float, float]:
    """Mirror velocities of the unreflected and reflected substates."""
    return p.V, ((p.M - p.m) * p.V + 2.0 * p.m * p.v) / (p.m + p.M)


def beat_frequency(p) -> float:
    """hbar K_rel (k + K) / (m + M), with K_rel = (M k - m K) / (m + M)."""
    k, K = p.m * p.v / p.hbar, p.M * p.V / p.hbar
    k_rel = (p.M * k - p.m * K) / (p.m + p.M)
    return p.hbar * k_rel * (k + K) / (p.m + p.M)


def particle_fringe_spacing(p) -> float:
    """pi hbar / (m (v - V)): particle-side fringe spacing of the marginal."""
    return math.pi * p.hbar / (p.m * (p.v - p.V))


def intensity_width(dk: float) -> float:
    """Standard deviation of |psi|^2 for a Gaussian of spectral width dk."""
    return 1.0 / (math.sqrt(2.0) * dk)


def _relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------

def _split_csv(path):
    text = Path(path).read_text(encoding="utf-8")
    header, body = [], []
    for line in text.splitlines():
        (header if line.startswith("#") else body).append(line)
    values = np.array(",".join(body).split(","), dtype=float)
    return header, values


def read_grid_csv(path):
    """(x1 axis, x2 axis, values) of a joint-PDF grid file."""
    header, values = _split_csv(path)
    axes = []
    for line in header:
        if line.startswith("# axis-"):
            _, _, role, lo, hi, n = line.split()
            axes.append((role, np.linspace(float(lo), float(hi), int(n))))
    if [role for role, _ in axes] != ["x1", "x2"]:
        raise ValueError(f"{path}: expected x1, x2 axes, got {axes}")
    (_, x1), (_, x2) = axes
    return x1, x2, values.reshape(len(x1), len(x2))


def read_curve_csv(path):
    """(x, y) of a curve file."""
    _, values = _split_csv(path)
    pairs = values.reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def grid_errors(name: str, x1, x2, values) -> list[str]:
    """Finite, non-negative, zero past the wall, unit total probability."""
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite PDF values"]
    errors = []
    if values.min() < 0.0:
        errors.append(f"{name}: negative PDF value {values.min():.3e}")
    beyond = values[x1[:, None] > x2[None, :]]
    if np.any(beyond != 0.0):
        errors.append(f"{name}: PDF nonzero where x1 > x2 (max {beyond.max():.3e})")
    total = float(np.trapezoid(np.trapezoid(values, x2, axis=1), x1))
    if not abs(total - 1.0) <= GRID_NORM_TOL:
        errors.append(f"{name}: total probability {total!r} is not 1 within "
                      f"{GRID_NORM_TOL}")
    return errors


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _analyses(name: str, report: dict, wanted) -> tuple[dict, list[str]]:
    analyses = report.get("analyses", {})
    errors = [f"{name}: analysis {a} missing or failed: {analyses.get(a)}"
              for a in wanted if a not in analyses or "error" in analyses[a]]
    return analyses, errors


def _within(errors, label, value, expected, tol=RELATIVE_TOL):
    err = _relative_error(value, expected)
    if not err <= tol:
        errors.append(f"{label} {value!r} is {err:.2%} from {expected!r}")


def fig5_errors(report: dict, p) -> list[str]:
    """Regime B, split velocities and Doppler beat against closed forms."""
    a, errors = _analyses("fig5", report, ("regime", "split-velocities", "beat"))
    if errors:
        return errors
    regime = a["regime"]["event0"]["regime"]
    if regime != "B":
        errors.append(f"fig5: regime {regime!r}, expected 'B'")
    split = a["split-velocities"]
    if not split.get("resolved"):
        errors.append("fig5: mirror splitting unresolved")
    else:
        slow, fast = split_velocities(p)
        _within(errors, "fig5: slow mirror velocity", split["v_slow"], slow)
        _within(errors, "fig5: fast mirror velocity", split["v_fast"], fast)
    _within(errors, "fig5: beat", a["beat"]["fitted"], beat_frequency(p))
    return errors


def fig6_m1_errors(report: dict, spec) -> list[str]:
    """Equal masses exchange their wavegroup widths on reflection."""
    a, errors = _analyses("fig6-m1", report, ("coherence-transfer",))
    if errors:
        return errors
    ct = a["coherence-transfer"]
    particle, mirror = intensity_width(spec.dk), intensity_width(spec.dK)
    for key, expected in (("width_particle_in", particle),
                          ("width_mirror_in", mirror),
                          ("width_particle_out", mirror),
                          ("width_mirror_out", particle)):
        if not abs(ct[key] - expected) <= WIDTH_TOL:
            errors.append(f"fig6-m1: {key} {ct[key]!r}, expected {expected!r}")
    return errors


def fig9_errors(report: dict, p) -> list[str]:
    """t2-independent marginal, particle fringes, washed-out mirror, beat."""
    a, errors = _analyses("fig9", report, (
        "marginal-t2-independence", "marginal-visibility", "beat"))
    if errors:
        return errors
    linf = a["marginal-t2-independence"]["linf_over_peak"]
    if not linf < T2_INDEPENDENCE_TOL:
        errors.append(f"fig9: marginal changes with t2 (linf/peak {linf:.3e})")
    vis = a["marginal-visibility"]
    _within(errors, "fig9: particle fringe spacing", vis["particle_spacing"],
            particle_fringe_spacing(p))
    if not vis["mirror_visibility"] < MIRROR_VISIBILITY_MAX:
        errors.append(f"fig9: mirror visibility {vis['mirror_visibility']!r}")
    _within(errors, "fig9: beat", a["beat"]["fitted"], beat_frequency(p))
    return errors


def t2_linf_over_peak(curves) -> float:
    """Largest departure of any marginal from the first, over the peak."""
    peak = max(float(np.max(c)) for c in curves)
    return max(float(np.max(np.abs(c - curves[0]))) for c in curves[1:]) / peak


def curve_norm_errors(name: str, x, y) -> list[str]:
    if not np.all(np.isfinite(y)) or y.min() < 0.0:
        return [f"{name}: marginal not finite and non-negative"]
    total = float(np.trapezoid(y, x))
    if not abs(total - 1.0) <= CURVE_NORM_TOL:
        return [f"{name}: marginal integrates to {total!r}, not 1 within "
                f"{CURVE_NORM_TOL}"]
    return []


# ---------------------------------------------------------------------------
# conditional
# ---------------------------------------------------------------------------

def conditional_errors(label: str, x2, pdf, x10: float) -> list[str]:
    """Finite, non-negative, and exactly zero on the far side of the detection."""
    if not np.all(np.isfinite(pdf)):
        return [f"{label}: non-finite conditional PDF"]
    errors = []
    if pdf.min() < 0.0:
        errors.append(f"{label}: negative conditional PDF {pdf.min():.3e}")
    if np.any(pdf[x2 < x10] != 0.0):
        errors.append(f"{label}: conditional PDF nonzero for x2 < x10")
    return errors


def wall_errors(label: str, wall_pdf: float, branch_intensity: float) -> list[str]:
    """Hard wall: at t2 = t10 the incident and reflected branches cancel at
    x2 = x10, so the smooth conditional PDF vanishes there. Measured against
    |incident|^2 + |reflected|^2 at that point; where both underflow to 0
    there is nothing to compare."""
    if branch_intensity > 0.0 and not wall_pdf <= WALL_CONTRAST_TOL * branch_intensity:
        return [f"{label}: conditional PDF {wall_pdf:.3e} at the wall x2 = x10, "
                f"branch intensity {branch_intensity:.3e}"]
    return []


def norm_drift(smooth_pdf, support, t10: float, t2_series) -> float:
    """Largest relative change of the conditional norm over the t2 series.

    ``smooth_pdf(x2, t2)`` is the conditional PDF without the hard-wall step
    and ``support(t2)`` the interval holding it; the norm is their
    trapezoid integral, on which the mirror evolution is exactly unitary.
    """
    def norm(t2):
        x2 = np.linspace(*support(t2), NORM_POINTS)
        return float(np.trapezoid(smooth_pdf(x2, t2), x2))

    n0 = norm(t10)
    if not n0 > 0.0:
        return math.inf
    return max(abs(norm(t2) - n0) / n0 for t2 in t2_series)
