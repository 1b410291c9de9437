"""Declarative parameter sweeps and figure-data jobs.

Sweeps evaluate the requested quantities on the Cartesian product of the
parameter grids, one output row per grid point, in lexicographic grid
order.  Figure jobs are canned sweeps that regenerate the data behind
the package's reference figures; their default parameter lists are part
of the public contract and must not drift.

Tables are held as columns from the grid to the bytes, never as row dicts.
A grid axis is its values plus each row's index into them, so each value is
formatted once; JSON rows come from one row template, as ``json.dumps`` writes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erfc

from . import __version__
from .errors import NonConvergenceError
from .phase_space import husimi, wigner
from .solvers import _contour
from .stats import (AcceptanceWindow, DetectorModel, Squeezing, _check_domain,
                    _closed_forms, photon_distribution)

__all__ = ["SweepSpec", "FigureJob", "run_sweep", "build_figure",
           "format_csv", "format_json", "FIGURE_IDS"]

VALID_QUANTITIES = ("C", "mean", "second_factorial", "Q", "p_n", "husimi", "wigner")


def _numbers(name: str, values) -> tuple[float, ...]:
    """A spec list as floats; a scalar, a string, a nested list or a boolean is a
    usage error."""
    if not isinstance(values, str):         # "12" would read as [1.0, 2.0]
        try:
            values = tuple(values)
            if not any(isinstance(v, (bool, np.bool_)) for v in values):
                return tuple(map(float, values))
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
        _check_domain(grid=True, lam=self.lam, x0=self.x0, eta=self.eta, n_bar=self.nbar)
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
        _check_domain(tol=self.tol, pn_max=self.pn_max)
        object.__setattr__(self, "radii", _numbers("radii", self.radii))
        _check_domain(grid=True, radii=self.radii)

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
class _Coded:
    """A column of repeated cells, such as a grid axis: row i holds ``values[codes[i]]``."""

    values: list
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class _Table:
    """Columns by name (1-D arrays, :class:`_Coded` or cell lists); ``len`` counts rows."""

    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _grid_columns(axes: dict, **values) -> dict:
    """A coded column per axis of the lexicographic grid, then ``values`` on it."""
    shape = tuple(map(len, axes.values()))
    codes = np.indices(shape).reshape(len(shape), -1)
    return {**{name: _Coded(list(grid), c) for (name, grid), c in zip(axes.items(), codes)},
            **{name: np.broadcast_to(v, shape).ravel() for name, v in values.items()}}


def run_sweep(spec: SweepSpec) -> tuple[dict, list[str], _Table]:
    """Evaluate the sweep; returns (meta, column names, table)."""
    meta = {"generator": f"quadherald {__version__}", "kind": "sweep",
            **{name: list(getattr(spec, name))
               for name in ("lam", "x0", "eta", "nbar", "quantities")},
            "tol": spec.tol}
    if "p_n" in spec.quantities:
        meta["pn_max"] = spec.pn_max
    if "husimi" in spec.quantities or "wigner" in spec.quantities:
        meta["radii"] = list(spec.radii)

    axes = {"lam": spec.lam, "x0": spec.x0, "eta": spec.eta, "nbar": spec.nbar}
    grid = _grid_columns(axes, **_closed_forms(*np.ix_(*axes.values())))
    n = len(grid["C"])
    errors = {}                                 # row: the text of its error
    widths = {"p_n": spec.pn_max + 1, "husimi": len(spec.radii), "wigner": len(spec.radii)}
    per_point = {qty: np.zeros((n, widths[qty])) for qty in spec.quantities if qty in widths}
    points = itertools.product(*axes.values()) if per_point else ()
    for i, (lam, x0, eta, nbar) in enumerate(points):
        try:
            stats = photon_distribution(Squeezing(lam), AcceptanceWindow.threshold(x0),
                                        DetectorModel(eta=eta, n_bar=nbar), tol=spec.tol)
        except NonConvergenceError as exc:
            for values in per_point.values():
                values[i] = np.nan
            errors[i] = str(exc)
        else:
            for qty, values in per_point.items():
                row = (stats.p[:spec.pn_max + 1] if qty == "p_n"
                       else (husimi if qty == "husimi" else wigner)(stats.p, spec.radii))
                values[i, :len(row)] = row

    columns = {name: grid[name] for name in axes}
    for qty in spec.quantities:
        if qty in per_point:
            head = "p_" if qty == "p_n" else f"{qty}_r"
            columns.update((f"{head}{k}", v) for k, v in enumerate(per_point[qty].T))
        else:
            columns[qty] = grid[qty]
    codes = np.zeros(n, dtype=np.intp)
    codes[list(errors)] = np.arange(1, len(errors) + 1)
    columns["error"] = _Coded(["", *errors.values()], codes)
    return meta, list(columns), _Table(columns)


# ---------------------------------------------------------------------------
# figure jobs
# ---------------------------------------------------------------------------

# 200 lam points log-spaced in (1 - lam) on [0.001, 0.95], ascending
_CONTOUR_LAMS = 1.0 - np.logspace(math.log10(1.0 - 0.001), math.log10(1.0 - 0.95), 200)


def _contour_columns(q, eta, lam, **_) -> dict:
    _check_domain(grid=True, q=q, eta=eta)
    columns = _grid_columns({"q_target": q, "eta": eta, "lam": lam})
    q, eta, lam = (g.ravel() for g in np.meshgrid(q, eta, lam, indexing="ij"))
    roots, y = _contour(lam, q, eta, 0.0)
    return {**columns, "x0_required": np.where(roots.feasible, roots.x0, np.nan),
            "acceptance_probability": np.where(roots.feasible, erfc(y), np.nan),
            "feasible": roots.feasible}


def _fig2_columns(lam, x0) -> dict:
    _check_domain(grid=True, lam=lam, x0=x0)
    values = _closed_forms(*np.ix_(lam, x0), 1.0, 0.0)
    return _grid_columns({"lam": lam, "x0": x0}, mean_n=values["mean"], Q=values["Q"])


def _fig4_columns(lam, x0, tol) -> dict:
    ps = [photon_distribution(Squeezing(lam), AcceptanceWindow.threshold(x0_i), tol=tol).p
          for x0_i in x0]
    return {"x0": _Coded(list(x0), np.repeat(np.arange(len(ps)), list(map(len, ps)))),
            "n": np.concatenate([np.arange(len(p)) for p in ps]), "p_n": np.concatenate(ps)}


def _fig5_columns(lam, x0, r) -> dict:
    ps = [photon_distribution(Squeezing(lam), AcceptanceWindow.threshold(x0_i)).p
          for x0_i in x0]
    return _grid_columns({"x0": x0, "r": r}, husimi=np.array([husimi(p, r) for p in ps]))


class _Figure(NamedTuple):
    """A figure's inputs (``params`` overridable, ``fixed`` not), columns and table.

    Inputs are in header order and ``table`` takes them all by name.  A
    default's type fixes its header form: a tuple in full, an array grid as
    ``[first, last]`` plus ``<name>_points``, else as is (a float takes one value).
    An overridden array grid is written in full, without ``<name>_points``
    and without a fixed ``<name>_spacing`` entry.
    """

    params: dict
    columns: dict
    table: Callable[..., dict]
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
                    _fig2_columns),
    # heralding probability and required threshold along fixed-Q contours
    # (rows at eta = 1, without the eta column)
    "fig3": _Figure({"q": (0.0, -0.05, -0.1, -0.2), "lam": _CONTOUR_LAMS},
                    {k: v for k, v in _CONTOUR_COLUMNS.items() if k != "eta"},
                    lambda q, lam, **_: _contour_columns(q, (1.0,), lam), _LOG_SPACING),
    # photon-number distributions at increasing thresholds
    "fig4": _Figure({"lam": 0.25, "x0": (0.0, 1.0, 2.0, 3.0)},
                    {"x0": "acceptance threshold", "n": "photon number",
                     "p_n": "probability of n photons"},
                    _fig4_columns, {"tol": 1e-12}),
    # Husimi radial profiles of the thermal and strongly heralded states
    "fig5": _Figure({"lam": 0.25, "x0": (0.0, 2.0)},
                    {"x0": "acceptance threshold", "r": "phase-space radius |alpha|",
                     "husimi": "Husimi function value"},
                    _fig5_columns, {"r": np.linspace(0.0, 5.0, 201)}),
    # fixed-Q contours for four detection efficiencies
    "fig6": _Figure({"q": (0.0, -0.05), "eta": (0.9, 0.8, 0.7, 0.6),
                     "lam": _CONTOUR_LAMS},
                    _CONTOUR_COLUMNS, _contour_columns, _LOG_SPACING),
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


def build_figure(job: FigureJob) -> tuple[dict, list[str], _Table]:
    """Data for one reference figure; returns (meta, column names, table)."""
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
    return meta, list(fig.columns), _Table(fig.table(**values))


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
    """One CSV field of a value other than a finite float: lists and dicts as
    JSON, None empty.

    A field holding ``,``, ``"`` or a newline is quoted as in RFC 4180.
    """
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    text = json.dumps(value) if isinstance(value, (list, dict)) else str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column, encode) -> list[str]:
    """Each cell's text: a finite float's ``repr`` (both formats), else ``encode`` of
    the value with its non-finite floats as None: ``null`` in JSON, empty in CSV."""
    if isinstance(column, np.ndarray) and column.dtype == bool:    # two texts, coded
        column = _Coded([False, True], column.view(np.uint8))
    if isinstance(column, _Coded):
        return np.array(_cells(column.values, encode), dtype=object)[column.codes].tolist()
    if isinstance(column, np.ndarray):
        if column.dtype == float and np.isfinite(column).all():
            return list(map(repr, column.tolist()))       # Python floats
        column = column.tolist()
    return [float.__repr__(v) if isinstance(v, float) and math.isfinite(v)
            else encode(_json_safe(v)) for v in column]


def format_csv(meta: dict, columns: list[str], table: _Table) -> str:
    lines = [f"# {key}: {json.dumps(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*(_cells(table.columns[col], _cell) for col in columns))))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, columns: list[str], table: _Table) -> str:
    """``json.dumps(..., indent=2)`` of meta, columns and rows: one join of the row
    template's texts (before each cell, then the close) and the columns' cells."""
    head = json.dumps({"meta": meta, "columns": columns, "rows": []}, indent=2)
    texts = [itertools.repeat(f",\n      {json.dumps(col)}: ") for col in columns]
    start = f"\n    {{\n      {json.dumps(columns[0])}: "
    texts[0] = itertools.chain(["[" + start], itertools.repeat("," + start))
    cells = (_cells(table.columns[col], json.dumps) for col in columns)
    rows = zip(*itertools.chain.from_iterable(zip(texts, cells)), itertools.repeat("\n    }"))
    body = itertools.chain.from_iterable(rows)
    return "".join(itertools.chain([head[:-len("[]\n}")]], body, ["\n  ]\n}\n"]))
