"""Declarative parameter sweeps and figure-data jobs.

Sweeps evaluate the requested quantities on the Cartesian product of the
parameter grids, one output row per grid point, in lexicographic grid
order.  Figure jobs are canned sweeps that regenerate the data behind
the package's reference figures; their default parameter lists are part
of the public contract and must not drift.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import NonConvergenceError, UndefinedQError
from .phase_space import husimi, wigner
from .solvers import _contour
from .stats import (_UNDEFINED_Q, AcceptanceWindow, DetectorModel, Squeezing,
                    _closed_forms, photon_distribution)

__all__ = ["SweepSpec", "FigureJob", "run_sweep", "build_figure",
           "format_csv", "format_json", "FIGURE_IDS"]

VALID_QUANTITIES = ("C", "mean", "second_factorial", "Q", "p_n", "husimi", "wigner")


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
        if any(not (0.0 <= v < math.inf) for v in self.x0):
            raise ValueError("all x0 grid values must be nonnegative and finite")
        if any(not (0.0 < v <= 1.0) for v in self.eta):
            raise ValueError("all eta grid values must lie in (0, 1]")
        if any(not (0.0 <= 2.0 * v < math.inf) for v in self.nbar):
            raise ValueError("all nbar grid values must be nonnegative, 2 nbar finite")
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


def _grid_rows(columns: dict) -> list[dict]:
    """One row per point of the broadcast grid of ``columns``, in C order."""
    arrays = np.broadcast_arrays(*columns.values())
    rows = [{} for _ in range(arrays[0].size)]
    for name, values in zip(columns, arrays):
        for row, value in zip(rows, values.ravel().tolist()):
            row[name] = value
    return rows


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

    grid = np.ix_(spec.lam, spec.x0, spec.eta, spec.nbar)
    values = _closed_forms(*grid)
    table = dict(zip(("lam", "x0", "eta", "nbar"), grid))
    table.update((qty, values[qty]) for qty in spec.quantities if qty in values)
    rows = _grid_rows(table)
    needs_distribution = bool({"p_n", "husimi", "wigner"} & set(spec.quantities))
    radii = np.asarray(spec.radii)
    for row in rows:
        errors = []
        if "Q" in row and math.isnan(row["Q"]):
            row["Q"] = ""
            errors.append(_UNDEFINED_Q)
        if needs_distribution:
            s, w = Squeezing(row["lam"]), AcceptanceWindow.threshold(row["x0"])
            d = DetectorModel(eta=row["eta"], n_bar=row["nbar"])
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
    return meta, columns, rows


# ---------------------------------------------------------------------------
# figure jobs
# ---------------------------------------------------------------------------

# 200 lam points log-spaced in (1 - lam) on [0.001, 0.95], ascending
_CONTOUR_LAMS = 1.0 - np.logspace(math.log10(1.0 - 0.001), math.log10(1.0 - 0.95), 200)


def _contour_rows(q, eta, lam, **_) -> list[dict]:
    for e in eta:
        DetectorModel(eta=e)                   # checks each efficiency
    q, eta, lam = (g.ravel() for g in np.meshgrid(q, eta, lam, indexing="ij"))
    roots, c = _contour(lam, q, eta, 0.0)
    return [{"q_target": q_i, "eta": e, "lam": lam_i,
             "x0_required": x0 if ok else "", "acceptance_probability": c_i if ok else "",
             "feasible": ok}
            for q_i, e, lam_i, x0, c_i, ok in zip(
                q.tolist(), eta.tolist(), lam.tolist(), roots.x0.tolist(), c.tolist(),
                roots.feasible.tolist())]


def _fig2_rows(lam, x0) -> list[dict]:
    for lam_i in lam:                  # the domain types check each value
        Squeezing(lam_i)
    for x0_i in x0:
        AcceptanceWindow.threshold(x0_i)
    grid = np.ix_(lam, x0)
    values = _closed_forms(*grid, 1.0, 0.0)
    if np.isnan(values["Q"]).any():
        raise UndefinedQError(_UNDEFINED_Q)
    return _grid_rows({"lam": grid[0], "x0": grid[1], "mean_n": values["mean"],
                       "Q": values["Q"]})


def _fig4_rows(lam, x0, tol) -> list[dict]:
    rows = []
    for x0_i in x0:
        p = photon_distribution(Squeezing(lam), AcceptanceWindow.threshold(x0_i), tol=tol).p
        rows.extend({"x0": float(x0_i), "n": n, "p_n": float(p_n)} for n, p_n in enumerate(p))
    return rows


def _fig5_rows(lam, x0, r) -> list[dict]:
    rows = []
    for x0_i in x0:
        p = photon_distribution(Squeezing(lam), AcceptanceWindow.threshold(x0_i)).p
        rows.extend({"x0": float(x0_i), "r": float(r_i), "husimi": float(h)}
                    for r_i, h in zip(r, husimi(p, r)))
    return rows


class _Figure(NamedTuple):
    """A figure's inputs (``params`` overridable, ``fixed`` not), columns and rows.

    Inputs are in header order and ``rows`` takes them all by name.  A
    default's type fixes its header form: a tuple in full, an array grid as
    ``[first, last]`` plus ``<name>_points``, else as is (a float takes one value).
    An overridden array grid is written in full, without ``<name>_points``
    and without a fixed ``<name>_spacing`` entry.
    """

    params: dict
    columns: dict
    rows: Callable[..., list[dict]]
    fixed: dict = {}


_CONTOUR_COLUMNS = {"q_target": "Mandel Q contour", "eta": "detector efficiency",
                    "lam": "squeezing parameter",
                    "x0_required": "threshold reaching the contour",
                    "acceptance_probability": "heralding probability",
                    "feasible": "whether the contour is reachable"}
_LOG_SPACING = {"lam_spacing": "log in (1 - lam)"}

_FIGURES = {
    # mean photon number and Mandel Q versus threshold
    "fig2": _Figure({"lam": (0.05, 0.1, 0.2), "x0": np.linspace(0.0, 4.0, 201)},
                    {"lam": "squeezing parameter", "x0": "acceptance threshold",
                     "mean_n": "mean photon number of heralded state",
                     "Q": "Mandel Q of heralded state"},
                    _fig2_rows),
    # heralding probability and required threshold along fixed-Q contours
    # (rows at eta = 1, without the eta column)
    "fig3": _Figure({"q": (0.0, -0.05, -0.1, -0.2), "lam": _CONTOUR_LAMS},
                    {k: v for k, v in _CONTOUR_COLUMNS.items() if k != "eta"},
                    lambda q, lam, **_: _contour_rows(q, (1.0,), lam), _LOG_SPACING),
    # photon-number distributions at increasing thresholds
    "fig4": _Figure({"lam": 0.25, "x0": (0.0, 1.0, 2.0, 3.0)},
                    {"x0": "acceptance threshold", "n": "photon number",
                     "p_n": "probability of n photons"},
                    _fig4_rows, {"tol": 1e-12}),
    # Husimi radial profiles of the thermal and strongly heralded states
    "fig5": _Figure({"lam": 0.25, "x0": (0.0, 2.0)},
                    {"x0": "acceptance threshold", "r": "phase-space radius |alpha|",
                     "husimi": "Husimi function value"},
                    _fig5_rows, {"r": np.linspace(0.0, 5.0, 201)}),
    # fixed-Q contours for four detection efficiencies
    "fig6": _Figure({"q": (0.0, -0.05), "eta": (0.9, 0.8, 0.7, 0.6),
                     "lam": _CONTOUR_LAMS},
                    _CONTOUR_COLUMNS, _contour_rows, _LOG_SPACING),
}

FIGURE_IDS = tuple(_FIGURES)


@dataclass(frozen=True)
class FigureJob:
    """Request for one reference figure; ``overrides`` maps inputs to number lists."""

    figure_id: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.figure_id not in _FIGURES:
            raise ValueError(f"unknown figure id {self.figure_id!r}; "
                             f"valid: {FIGURE_IDS}")
        params = _FIGURES[self.figure_id].params
        overrides = {}
        for name, values in self.overrides.items():
            if name not in params:
                raise ValueError(f"{self.figure_id} takes {', '.join(params)}; got {name!r}")
            values = _numbers(name, values)
            single = isinstance(params[name], float)
            if not values or (single and len(values) > 1):
                need = "one" if single else "at least one"
                raise ValueError(f"{self.figure_id} takes {need} {name} value, "
                                 f"got {len(values)}")
            overrides[name] = values[0] if single else values
        object.__setattr__(self, "overrides", overrides)


def build_figure(job: FigureJob) -> tuple[dict, list[str], list[dict]]:
    """Data rows for one reference figure; returns (meta, columns, rows)."""
    fig = _FIGURES[job.figure_id]
    defaults = {**fig.params, **fig.fixed}
    values = {**defaults, **job.overrides}
    meta = {"generator": f"quadherald {__version__}", "kind": job.figure_id}
    for name, default in defaults.items():
        value = values[name]
        grid = name.removesuffix("_spacing")
        if grid != name and grid in job.overrides:
            continue                  # describes the default grid, not the given one
        if isinstance(default, np.ndarray) and name not in job.overrides:
            meta[name] = [float(value[0]), float(value[-1])]
            meta[f"{name}_points"] = len(value)
        elif isinstance(default, (tuple, np.ndarray)):
            meta[name] = [float(v) for v in value]
        else:
            meta[name] = value
    meta["columns"] = dict(fig.columns)
    return meta, list(fig.columns), fig.rows(**values)


# ---------------------------------------------------------------------------
# serialization (identical field names in both formats)
# ---------------------------------------------------------------------------

def _json_safe(value):
    """``value`` with every non-finite float inside it replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cell(value) -> str:
    """One CSV field: floats as repr, lists and dicts as JSON, None empty.

    A field holding ``,``, ``"`` or a newline is quoted as in RFC 4180.
    """
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))  # shortest digits that round-trip exactly
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    text = (json.dumps(_json_safe(value)) if isinstance(value, (list, dict))
            else str(value))
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values: list) -> list[str]:
    """The CSV fields of one column; an all-float column skips :func:`_cell`."""
    try:
        return list(map(float.__repr__, values))
    except TypeError:                 # a str, bool, int, None, list or dict
        return [_cell(v) for v in values]


def format_csv(meta: dict, columns: list[str], rows: list[dict]) -> str:
    lines = [f"# {key}: {json.dumps(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    fields = [_column([row.get(col, "") for row in rows]) for col in columns]
    lines.extend(map(",".join, zip(*fields)))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, columns: list[str], rows: list[dict]) -> str:
    payload = {"meta": meta, "columns": columns,
               "rows": [{col: row.get(col, "") for col in columns}
                        for row in rows]}
    return json.dumps(payload, indent=2) + "\n"
