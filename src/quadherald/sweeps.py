"""Declarative parameter sweeps and figure-data jobs.

Sweeps evaluate the requested quantities on the Cartesian product of the
parameter grids, one output row per grid point, in lexicographic grid
order.  Figure jobs are canned sweeps that regenerate the data behind
the package's reference figures; their default parameter lists are part
of the public contract and must not drift.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import NonConvergenceError, UndefinedQError
from .phase_space import husimi, wigner
from .solvers import solve_threshold_for_mandel_q
from .stats import (AcceptanceWindow, DetectorModel, Squeezing,
                    acceptance_probability_imperfect, mandel_q,
                    mean_photon_number, photon_distribution,
                    second_factorial_moment)

__all__ = ["SweepSpec", "FigureJob", "run_sweep", "build_figure",
           "format_csv", "format_json", "FIGURE_IDS"]

VALID_QUANTITIES = ("C", "mean", "second_factorial", "Q", "p_n", "husimi", "wigner")

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6")


def _numbers(name: str, values) -> tuple[float, ...]:
    """A spec list as floats; a scalar, a string or a nested list is a usage error."""
    if not isinstance(values, str):         # "12" would read as [1.0, 2.0]
        try:
            return tuple(float(v) for v in values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list of numbers, got {values!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Grids, quantities and output options for a parameter sweep."""

    lam: tuple[float, ...]
    x0: tuple[float, ...]
    eta: tuple[float, ...] = (1.0,)
    nbar: tuple[float, ...] = (0.0,)
    quantities: tuple[str, ...] = ("C", "mean", "second_factorial", "Q")
    tol: float = 1e-12
    pn_max: int = 10
    radii: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        for name in ("lam", "x0", "eta", "nbar"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
            if len(getattr(self, name)) == 0:
                raise ValueError(f"grid {name} must be nonempty")
        if any(not (0.0 <= v < 1.0) for v in self.lam):
            raise ValueError("all lam grid values must lie in [0, 1)")
        if any(v < 0.0 for v in self.x0):
            raise ValueError("all x0 grid values must be nonnegative")
        if any(not (0.0 < v <= 1.0) for v in self.eta):
            raise ValueError("all eta grid values must lie in (0, 1]")
        if any(v < 0.0 for v in self.nbar):
            raise ValueError("all nbar grid values must be nonnegative")
        if not (isinstance(self.quantities, (list, tuple))
                and all(isinstance(q, str) for q in self.quantities)):
            raise ValueError(
                f"quantities must be a list of names, got {self.quantities!r}")
        object.__setattr__(self, "quantities", tuple(self.quantities))
        unknown = set(self.quantities) - set(VALID_QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities {sorted(unknown)}; "
                             f"valid: {VALID_QUANTITIES}")
        if len(set(self.quantities)) < len(self.quantities):   # duplicate columns
            raise ValueError(f"quantities repeat a name: {list(self.quantities)}")
        if not (isinstance(self.tol, numbers.Real) and 0.0 < self.tol <= 1e-3):
            raise ValueError(f"tol must lie in (0, 1e-3], got {self.tol!r}")
        if not isinstance(self.pn_max, (int, np.integer)) or self.pn_max < 0:
            raise ValueError(f"pn_max must be a nonnegative integer, got {self.pn_max!r}")
        object.__setattr__(self, "radii", _numbers("radii", self.radii))
        if any(r < 0.0 for r in self.radii):
            raise ValueError("radii must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a sweep spec must be a JSON object, got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sweep spec keys {sorted(unknown)}")
        missing = {"lam", "x0"} - set(data)
        if missing:
            raise ValueError(f"sweep spec lacks keys {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class FigureJob:
    """Request to regenerate the data behind one reference figure."""

    figure_id: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure id {self.figure_id!r}; "
                             f"valid: {FIGURE_IDS}")


def _sweep_columns(spec: SweepSpec) -> list[str]:
    cols = ["lam", "x0", "eta", "nbar"]
    for qty in spec.quantities:
        if qty == "p_n":
            cols.extend(f"p_{i}" for i in range(spec.pn_max + 1))
        elif qty in ("husimi", "wigner"):
            cols.extend(f"{qty}_r{i}" for i in range(len(spec.radii)))
        else:
            cols.append(qty)
    cols.append("error")
    return cols


def run_sweep(spec: SweepSpec) -> tuple[dict, list[str], list[dict]]:
    """Evaluate the sweep; returns (meta, columns, rows)."""
    meta = {
        "generator": f"quadherald {__version__}",
        "kind": "sweep",
        "lam": list(spec.lam), "x0": list(spec.x0),
        "eta": list(spec.eta), "nbar": list(spec.nbar),
        "quantities": list(spec.quantities), "tol": spec.tol,
    }
    if "p_n" in spec.quantities:
        meta["pn_max"] = spec.pn_max
    if "husimi" in spec.quantities or "wigner" in spec.quantities:
        meta["radii"] = list(spec.radii)
    columns = _sweep_columns(spec)

    needs_distribution = bool({"p_n", "husimi", "wigner"} & set(spec.quantities))
    radii = np.asarray(spec.radii)
    rows = []
    for lam, x0, eta, nbar in itertools.product(spec.lam, spec.x0,
                                                spec.eta, spec.nbar):
        row = {"lam": lam, "x0": x0, "eta": eta, "nbar": nbar, "error": ""}
        s, w, d = Squeezing(lam), AcceptanceWindow.threshold(x0), \
            DetectorModel(eta=eta, n_bar=nbar)
        errors = []
        if "C" in spec.quantities:
            row["C"] = acceptance_probability_imperfect(s, w, d)
        if "mean" in spec.quantities:
            row["mean"] = mean_photon_number(s, w, d)
        if "second_factorial" in spec.quantities:
            row["second_factorial"] = second_factorial_moment(s, w, d)
        if "Q" in spec.quantities:
            try:
                row["Q"] = mandel_q(s, w, d)
            except UndefinedQError as exc:
                row["Q"] = ""
                errors.append(str(exc))
        if needs_distribution:
            try:
                stats = photon_distribution(s, w, d, tol=spec.tol)
                if "p_n" in spec.quantities:
                    for i in range(spec.pn_max + 1):
                        row[f"p_{i}"] = float(stats.p[i]) if i <= stats.n_max else 0.0
                for qty, func in (("husimi", husimi), ("wigner", wigner)):
                    if qty in spec.quantities:
                        vals = func(stats.p, radii)
                        for i, v in enumerate(np.atleast_1d(vals)):
                            row[f"{qty}_r{i}"] = float(v)
            except NonConvergenceError as exc:
                errors.append(str(exc))
                for col in columns:
                    row.setdefault(col, "")
        row["error"] = "; ".join(errors)
        rows.append(row)
    return meta, columns, rows


# ---------------------------------------------------------------------------
# figure jobs
# ---------------------------------------------------------------------------

def _log_one_minus_lam_grid(lo: float = 0.001, hi: float = 0.95,
                            count: int = 200) -> np.ndarray:
    """lam grid log-spaced in (1 - lam), ascending, endpoints included."""
    u = np.logspace(math.log10(1.0 - lo), math.log10(1.0 - hi), count)
    return 1.0 - u


def _contour_rows(q_targets, etas, lams) -> list[dict]:
    rows = []
    for q_target, eta in itertools.product(q_targets, etas):
        d = DetectorModel(eta=eta)
        for lam in lams:
            rep = solve_threshold_for_mandel_q(Squeezing(lam), q_target, d)
            if rep.feasible:
                c = acceptance_probability_imperfect(
                    Squeezing(lam), AcceptanceWindow.threshold(rep.solution), d)
                rows.append({"q_target": q_target, "eta": eta, "lam": float(lam),
                             "x0_required": rep.solution,
                             "acceptance_probability": c, "feasible": True})
            else:
                rows.append({"q_target": q_target, "eta": eta, "lam": float(lam),
                             "x0_required": "", "acceptance_probability": "",
                             "feasible": False})
    return rows


def build_figure(job: FigureJob) -> tuple[dict, list[str], list[dict]]:
    """Data rows for one reference figure; returns (meta, columns, rows)."""
    ov = job.overrides
    meta = {"generator": f"quadherald {__version__}", "kind": job.figure_id}

    if job.figure_id == "fig2":
        # mean photon number and Mandel Q versus threshold
        lams = ov.get("lam", [0.05, 0.1, 0.2])
        x0s = ov.get("x0", np.linspace(0.0, 4.0, 201))
        meta.update(lam=list(map(float, lams)), x0=[float(x0s[0]), float(x0s[-1])],
                    x0_points=len(x0s),
                    columns={"lam": "squeezing parameter",
                             "x0": "acceptance threshold",
                             "mean_n": "mean photon number of heralded state",
                             "Q": "Mandel Q of heralded state"})
        rows = [{"lam": float(lam), "x0": float(x0),
                 "mean_n": mean_photon_number(Squeezing(lam),
                                              AcceptanceWindow.threshold(x0)),
                 "Q": mandel_q(Squeezing(lam), AcceptanceWindow.threshold(x0))}
                for lam in lams for x0 in x0s]
        return meta, ["lam", "x0", "mean_n", "Q"], rows

    if job.figure_id == "fig3":
        # heralding probability and required threshold along fixed-Q contours
        q_targets = ov.get("q", [0.0, -0.05, -0.1, -0.2])
        lams = ov.get("lam", _log_one_minus_lam_grid())
        meta.update(q=list(map(float, q_targets)),
                    lam=[float(lams[0]), float(lams[-1])], lam_points=len(lams),
                    lam_spacing="log in (1 - lam)",
                    columns={"q_target": "Mandel Q contour",
                             "lam": "squeezing parameter",
                             "x0_required": "threshold reaching the contour",
                             "acceptance_probability": "heralding probability",
                             "feasible": "whether the contour is reachable"})
        rows = [{k: v for k, v in row.items() if k != "eta"}
                for row in _contour_rows(q_targets, [1.0], lams)]
        return meta, ["q_target", "lam", "x0_required",
                      "acceptance_probability", "feasible"], rows

    if job.figure_id == "fig4":
        # photon-number distributions at increasing thresholds
        lam = float(ov.get("lam", [0.25])[0])
        x0s = ov.get("x0", [0.0, 1.0, 2.0, 3.0])
        tol = float(ov.get("tol", 1e-12))
        meta.update(lam=lam, x0=list(map(float, x0s)), tol=tol,
                    columns={"x0": "acceptance threshold",
                             "n": "photon number",
                             "p_n": "probability of n photons"})
        rows = []
        for x0 in x0s:
            stats = photon_distribution(Squeezing(lam),
                                        AcceptanceWindow.threshold(x0), tol=tol)
            rows.extend({"x0": float(x0), "n": n, "p_n": float(stats.p[n])}
                        for n in range(stats.n_max + 1))
        return meta, ["x0", "n", "p_n"], rows

    if job.figure_id == "fig5":
        # Husimi radial profiles of the thermal and strongly heralded states
        lam = float(ov.get("lam", [0.25])[0])
        x0s = ov.get("x0", [0.0, 2.0])
        radii = ov.get("radii", np.linspace(0.0, 5.0, 201))
        meta.update(lam=lam, x0=list(map(float, x0s)),
                    r=[float(radii[0]), float(radii[-1])], r_points=len(radii),
                    columns={"x0": "acceptance threshold",
                             "r": "phase-space radius |alpha|",
                             "husimi": "Husimi function value"})
        rows = []
        for x0 in x0s:
            stats = photon_distribution(Squeezing(lam),
                                        AcceptanceWindow.threshold(x0))
            values = husimi(stats.p, np.asarray(radii))
            rows.extend({"x0": float(x0), "r": float(r), "husimi": float(v)}
                        for r, v in zip(radii, values))
        return meta, ["x0", "r", "husimi"], rows

    # fig6: fixed-Q contours for four detection efficiencies
    q_targets = ov.get("q", [0.0, -0.05])
    etas = ov.get("eta", [0.9, 0.8, 0.7, 0.6])
    lams = ov.get("lam", _log_one_minus_lam_grid())
    meta.update(q=list(map(float, q_targets)), eta=list(map(float, etas)),
                lam=[float(lams[0]), float(lams[-1])], lam_points=len(lams),
                lam_spacing="log in (1 - lam)",
                columns={"q_target": "Mandel Q contour",
                         "eta": "detector efficiency",
                         "lam": "squeezing parameter",
                         "x0_required": "threshold reaching the contour",
                         "acceptance_probability": "heralding probability",
                         "feasible": "whether the contour is reachable"})
    rows = _contour_rows(q_targets, etas, lams)
    return meta, ["q_target", "eta", "lam", "x0_required",
                  "acceptance_probability", "feasible"], rows


# ---------------------------------------------------------------------------
# serialization (identical field names in both formats)
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))  # shortest digits that round-trip exactly
    return str(value)


def format_csv(meta: dict, columns: list[str], rows: list[dict]) -> str:
    lines = [f"# {key}: {json.dumps(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, columns: list[str], rows: list[dict]) -> str:
    payload = {"meta": meta, "columns": columns,
               "rows": [{col: row.get(col, "") for col in columns}
                        for row in rows]}
    return json.dumps(payload, indent=2) + "\n"
