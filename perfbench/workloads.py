"""The benchmark's workloads: how ops are drawn, run and checked.

Every workload yields its ops in cycles, and every cycle draws afresh
from ``(seed, cycle)``.  A strong-squeezing or montecarlo cycle visits
fixed strata of parameter space once each; the seed only jitters the
draws inside a stratum, so the work in a cycle barely depends on the
seed.  The jitter stays in the middle fifth of a stratum, and ops that
share a stratum are drawn antithetically (positions u and 1 - u), which
cancels most of the cost jitter; strata run in bit-reversed order, so
any prefix of a cycle mixes cheap and costly ones.  A cli-sweeps cycle
runs each kind of CLI call once.

``run`` is the timed part of an op.  ``check`` runs after it, outside
the timed interval, and returns None or the reason the output is wrong.

The timed draws stay clear of the program's known defect region
(ROADMAP open item 2: psi_n underflow once x0 > ~38, Monte Carlo
inverse-CDF bias from lam ~ 0.996), so a timed op fails its check only
when the program regresses.  ``KNOWN_DEFECTS`` holds fixed ops inside that
region; they run after the timed phase, with the same checks, and their
status is printed and recorded, so the defects stay visible.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np

import reference

EPS = np.finfo(float).eps
INV_PI = 1.0 / math.pi


def bit_reversed(n: int) -> list[int]:
    """0..n-1 (n a power of two) in bit-reversed order: 0, n/2, n/4, 3n/4, ..."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def mid_fifth(u: float) -> float:
    """A uniform draw u in [0, 1) mapped to the middle fifth of a stratum."""
    return 0.4 + 0.2 * u


def log_one_minus(lo: float, hi: float, pos: float) -> float:
    """lam in [lo, hi] at position pos in [0, 1], log-spaced in 1 - lam."""
    a, b = math.log(1.0 - lo), math.log(1.0 - hi)
    return 1.0 - math.exp(a + (b - a) * pos)


def _fmt(params: dict) -> str:
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in params.items())


# ---------------------------------------------------------------------------
# strong-squeezing
# ---------------------------------------------------------------------------

class StrongSqueezing:
    name = "strong-squeezing"
    why = ("The special psi table, the stats q_n paths (ideal O(N), imperfect "
           "O(N^2)) and phase_space do almost all the work, at N up to ~7000, "
           "with ideal and imperfect ops side by side.")
    op_size = ("one heralded state: photon_distribution (tol 1e-12) then husimi "
               "and wigner on 64 radii over [0, sqrt(N) + 3]")

    STRATA = 32                        # lam strata, log-spaced in 1 - lam
    LAM = (0.9, 0.995)
    ETAS = (1.0, 0.9, 0.8, 0.6)
    NBARS = (0.0, 0.3)
    X0_RANGES = ((0.0, 6.0), (30.0, 36.0))   # sum(p) breaks from x0 ~ 38 on
    RADII = 64
    KNOWN_DEFECTS = (     # ROADMAP open item 2, cause 1: sum(p) = 0
        {"lam": 0.995, "x0": 45.0, "eta": 1.0, "nbar": 0.0},
        {"lam": 0.99, "x0": 40.0, "eta": 0.8, "nbar": 0.0},
    )

    def __init__(self, qh, seed: int):
        self.qh, self.seed = qh, seed
        # x0 sub-strata are dealt to lam strata by fixed permutations
        self._x0_perm = ([(5 * k + 3) % self.STRATA for k in range(self.STRATA)],
                         [(7 * k + 1) % self.STRATA for k in range(self.STRATA)])

    def cycle(self, c: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, c])
        u, v = rng.random(self.STRATA), rng.random((2, self.STRATA))
        ops = []
        for k in bit_reversed(self.STRATA):
            eta = self.ETAS[k % len(self.ETAS)]
            nbar = self.NBARS[(k // len(self.ETAS)) % len(self.NBARS)]
            for side, pos in enumerate((u[k], 1.0 - u[k])):
                lo, hi = self.X0_RANGES[side]
                x0 = lo + (hi - lo) * (self._x0_perm[side][k]
                                       + mid_fifth(v[side, k])) / self.STRATA
                lam = log_one_minus(*self.LAM, (k + mid_fifth(pos)) / self.STRATA)
                ops.append({"lam": lam, "x0": x0, "eta": eta, "nbar": nbar})
        return ops

    def warmup(self) -> None:
        self.run({"lam": 0.9, "x0": 2.0, "eta": 0.8, "nbar": 0.0})

    def run(self, op: dict):
        qh = self.qh
        st = qh.photon_distribution(qh.Squeezing(op["lam"]),
                                    qh.AcceptanceWindow.threshold(op["x0"]),
                                    qh.DetectorModel(eta=op["eta"], n_bar=op["nbar"]))
        radii = np.linspace(0.0, math.sqrt(st.n_max) + 3.0, self.RADII)
        return st, qh.husimi(st.p, radii), qh.wigner(st.p, radii)

    def check(self, op: dict, out) -> str | None:
        st, hus, wig = out
        p, n = st.p, np.arange(len(st.p))
        if not (np.all(np.isfinite(p)) and np.all(p >= 0.0)):
            return "p has negative or non-finite entries"
        if not np.all((st.q >= 0.0) & (st.q <= 1.0)):
            return "q_n outside [0, 1]"
        allowed = st.truncation_error_bound + 4.0 * EPS * len(p)
        if abs(1.0 - p.sum()) > allowed:
            return f"|1 - sum(p)| = {abs(1.0 - p.sum()):.3e} > {allowed:.3e}"
        mean = float(n @ p)
        if abs(mean - st.mean_n) > 1e-8 * abs(st.mean_n):
            return f"sum(n p) = {mean!r} vs closed-form mean {st.mean_n!r}"
        if not (np.all(hus >= 0.0) and np.all(hus <= INV_PI * (1 + 1e-12))):
            return "Husimi outside [0, 1/pi]"
        if not np.all(np.abs(wig) <= INV_PI * (1 + 1e-12)):
            return "|W| > 1/pi"
        return None

    describe = staticmethod(_fmt)


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

class MonteCarlo:
    name = "montecarlo"
    why = ("oracles uses the psi_n recurrence unlike strong-squeezing: many x "
           "at low order (rejection path) and a big grid at high order "
           "(inverse-CDF path); a sampler rewrite shows here and nowhere else.")
    op_size = "one monte_carlo_experiment call of 100000 shots"

    SHOTS = 100_000
    # the sampler's bias (z_C ~ -2 at 0.997, below -5 at 0.998) starts near 0.996
    LAM_RANGES = ((0.1, 0.5), (0.5, 0.9), (0.9, 0.99), (0.99, 0.995))
    SUB = 2                            # sub-strata per lam range
    ETAS = (1.0, 0.8)                  # the antithetic pair of a sub-stratum
    X0_MAX = 3.0
    Z_MAX = 5.0
    KNOWN_DEFECTS = (     # ROADMAP open item 2, cause 2: z_C ~ -8.6 at this size
        {"lam": 0.999, "x0": 2.0, "eta": 1.0, "mc_seed": 1, "shots": 30_000},
    )

    def __init__(self, qh, seed: int):
        self.qh, self.seed = qh, seed
        warnings.filterwarnings("ignore", category=UserWarning, module="quadherald")

    def cycle(self, c: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, c])
        slots = len(self.LAM_RANGES) * self.SUB
        u = rng.random(slots)
        ops = []
        for slot in bit_reversed(slots):
            lo, hi = self.LAM_RANGES[slot // self.SUB]
            sub = slot % self.SUB
            for eta, jitter in zip(self.ETAS, (u[slot], 1.0 - u[slot])):
                pos = (sub + mid_fifth(jitter)) / self.SUB
                # x0 rises with lam inside a range, so that every op accepts
                # hundreds of shots or more and the z-scores are meaningful
                ops.append({"lam": log_one_minus(lo, hi, pos),
                            "x0": self.X0_MAX * pos, "eta": eta,
                            "mc_seed": (self.seed * 7919 + c * 64 + len(ops)) % 2**32})
        return ops

    def warmup(self) -> None:
        self.run({"lam": 0.25, "x0": 1.0, "eta": 1.0, "mc_seed": 0, "shots": 10_000})

    def run(self, op: dict):
        qh = self.qh
        return qh.monte_carlo_experiment(
            qh.Squeezing(op["lam"]), qh.AcceptanceWindow.threshold(op["x0"]),
            qh.DetectorModel(eta=op["eta"]), shots=op.get("shots", self.SHOTS),
            seed=op["mc_seed"])

    def check(self, op: dict, res) -> str | None:
        qh = self.qh
        s, w, d = (qh.Squeezing(op["lam"]), qh.AcceptanceWindow.threshold(op["x0"]),
                   qh.DetectorModel(eta=op["eta"]))
        analytic = {"C": qh.acceptance_probability_imperfect(s, w, d),
                    "mean": qh.mean_photon_number(s, w, d), "Q": qh.mandel_q(s, w, d)}
        empirical = {"C": res.empirical_c, "mean": res.empirical_mean,
                     "Q": res.empirical_q}
        for key, ref in analytic.items():
            se = res.standard_errors[key]
            if math.isfinite(se) and se > 0.0:
                z = (empirical[key] - ref) / se
                if not abs(z) <= self.Z_MAX:
                    return f"z_{key} = {z:.2f} (|z| > {self.Z_MAX:g})"
            elif empirical[key] != ref:
                return f"{key}: standard error {se!r} with empirical != analytic"
        return None

    describe = staticmethod(_fmt)


# ---------------------------------------------------------------------------
# cli-sweeps
# ---------------------------------------------------------------------------

def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _check_closed_forms(row: dict, lam, x0, eta, nbar, names) -> str | None:
    ref = reference.closed_form(lam, x0, eta, nbar)
    for name in names:
        got = float(row[name])
        if name == "Q":
            if abs(got - ref["Q"]) > 1e-9 * (1.0 + ref["mean"]):
                return f"Q = {got!r} vs mpmath {ref['Q']!r} at lam={lam} x0={x0}"
        elif reference.rel_err(got, ref[name]) > 1e-10:
            return f"{name} = {got!r} vs mpmath {ref[name]!r} at lam={lam} x0={x0}"
    return None


class CliSweeps:
    """The CLI's commands, run through ``quadherald.cli.main`` in this process.

    A fresh ``python -m quadherald.cli`` process per op would mostly time
    the interpreter's start-up and the numpy/scipy imports, which swing by
    a third from run to run on a shared host.  The start-up cost is in
    ``setup_s`` here (a fresh benchmark process imports the CLI), and the
    traced run reports it as ``cli.import_s`` and ``cli.process_overhead_ms``
    by running the first cycle's ops as fresh processes too.
    """

    name = "cli-sweeps"
    why = ("The quadherald CLI commands users and scripts run: sweeps and the "
           "scalar closed forms in stats and solvers do the work; q_n "
           "recurrences, Monte Carlo and large-N phase space barely run.")
    op_size = ("one quadherald.cli.main call in the benchmark process: stats, a "
               "10^4-point sweep, a p_n/husimi/wigner sweep, fig3, fig6 or a solve")

    SAMPLE_ROWS = 8
    KNOWN_DEFECTS = ()

    def __init__(self, qh, seed: int, src: str, tmp: str):
        import quadherald.cli  # noqa: F401  (part of set-up, as for a user)
        self.qh, self.seed, self.tmp = qh, seed, tmp
        self.env = dict(os.environ, PYTHONPATH=src)

    def cycle(self, c: int) -> list[dict]:
        r = np.random.default_rng([self.seed, c]).random(18)

        def f(x) -> str:
            return repr(round(float(x), 6))

        ops = [
            ("stats", ["stats", "--lambda", f(0.05 + 0.5 * r[0]), "--x0", f(4.0 * r[1])]),
            ("sweep-1e4", ["sweep",
                           "--lambda", f"{f(0.02 + 0.03 * r[2])}:{f(0.55 + 0.1 * r[3])}:10",
                           "--x0", f"0:{f(3.5 + r[4])}:250",
                           "--eta", f"{f(0.6 + 0.3 * r[5])},1",
                           "--nbar", f"0,{f(0.1 + 0.4 * r[6])}",
                           "--quantities", "C,mean,second_factorial,Q"]),
            ("stats-pn", ["stats", "--pn", "--lambda", f(0.1 + 0.4 * r[7]),
                          "--x0", f(3.0 * r[8]), "--eta", f(0.6 + 0.4 * r[9])]),
            ("fig3", ["figure", "fig3"]),
            ("sweep-pn", ["sweep", "--lambda", f"{f(0.15 + 0.1 * r[10])},{f(0.3 + 0.1 * r[11])}",
                          "--x0", "0:3:10", "--quantities", "p_n,husimi,wigner",
                          "--radii", "0:3:16", "--pn-max", "60"]),
            ("stats-thermal", ["stats", "--lambda", f(0.05 + 0.5 * r[12]),
                               "--x0", f(4.0 * r[13]), "--eta", f(0.6 + 0.4 * r[14]),
                               "--nbar", f(0.5 * r[15])]),
            ("fig6", ["figure", "fig6"]),
            ("optimal-lambda", ["solve", "optimal-lambda", "--q", "-0.05", "--eta", "0.8"]),
            ("x0-for-q", ["solve", "x0-for-q", "--lambda", f(0.15 + 0.35 * r[16]),
                          "--q", f(-0.02 - 0.13 * r[17])]),
        ]
        result = []
        for i, (kind, argv) in enumerate(ops):
            ext = "csv" if argv[0] in ("sweep", "figure") else "json"
            out = os.path.join(self.tmp, f"c{c}-op{i}.{ext}")
            result.append({"kind": kind, "argv": argv + ["--out", out],
                           "check_seed": [self.seed, c, i]})
        return result

    def warmup(self) -> None:
        self.run({"argv": ["stats", "--lambda", "0.25", "--x0", "2",
                           "--out", os.path.join(self.tmp, "warmup.json")]})

    def run(self, op: dict):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = self.qh.cli.main(list(op["argv"]))
        return code, stderr.getvalue()

    def run_process(self, op: dict) -> None:
        """The op as a fresh ``python -m quadherald.cli`` process."""
        subprocess.run([sys.executable, "-m", "quadherald.cli", *op["argv"]],
                       env=self.env, cwd=self.tmp, stdout=subprocess.DEVNULL,
                       check=True, timeout=120)

    def check(self, op: dict, out) -> str | None:
        code, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        path = op["argv"][op["argv"].index("--out") + 1]
        try:
            return getattr(self, "_check_" + op["kind"].replace("-", "_"))(op, path)
        finally:
            os.remove(path)

    def _sample(self, op, rows):
        rng = np.random.default_rng(op["check_seed"])
        return [rows[i] for i in rng.choice(len(rows), min(self.SAMPLE_ROWS, len(rows)),
                                            replace=False)]

    def _check_stats(self, op, path):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        row = {"C": rec["acceptance_probability"], "mean": rec["mean_n"],
               "second_factorial": rec["second_factorial"], "Q": rec["mandel_q"]}
        bad = _check_closed_forms(row, rec["lambda"], rec["x0"], rec["eta"],
                                  rec["nbar"], row)
        if bad or "p" not in rec:
            return bad
        p = np.asarray(rec["p"])
        allowed = rec["truncation_error_bound"] + 4.0 * EPS * len(p)
        if np.any(p < 0.0) or abs(1.0 - p.sum()) > allowed:
            return f"p_n not normalized: |1 - sum(p)| = {abs(1.0 - p.sum()):.3e}"
        if abs(float(np.arange(len(p)) @ p) - rec["mean_n"]) > 1e-8 * rec["mean_n"]:
            return "sum(n p) differs from mean_n"
        return None

    _check_stats_pn = _check_stats_thermal = _check_stats

    def _check_sweep_1e4(self, op, path):
        rows = _read_csv(path)
        if len(rows) != 10_000:
            return f"{len(rows)} rows, expected 10000"
        for row in self._sample(op, rows):
            bad = _check_closed_forms(row, float(row["lam"]), float(row["x0"]),
                                      float(row["eta"]), float(row["nbar"]),
                                      ("C", "mean", "second_factorial", "Q"))
            if bad:
                return bad
        return None

    def _check_sweep_pn(self, op, path):
        for row in _read_csv(path):
            p = np.array([float(row[f"p_{i}"]) for i in range(61)])
            if row["error"] or np.any(p < 0.0) or abs(1.0 - p.sum()) > 1e-11:
                return f"p_n row lam={row['lam']} x0={row['x0']} not normalized"
            hus = np.array([float(v) for k, v in row.items() if k.startswith("husimi_")])
            wig = np.array([float(v) for k, v in row.items() if k.startswith("wigner_")])
            limit = INV_PI * (1 + 1e-12)
            if np.any(hus < 0.0) or np.any(hus > limit) or np.any(np.abs(wig) > limit):
                return f"phase-space row lam={row['lam']} x0={row['x0']} out of range"
        return None

    def _check_contour(self, op, path, expected_rows):
        rows = _read_csv(path)
        if len(rows) != expected_rows:
            return f"{len(rows)} rows, expected {expected_rows}"
        feasible = [row for row in rows if row["feasible"] == "true"]
        for row in self._sample(op, feasible):
            lam, x0 = float(row["lam"]), float(row["x0_required"])
            eta = float(row.get("eta", 1.0))
            ref = reference.closed_form(lam, x0, eta)
            if abs(ref["Q"] - float(row["q_target"])) > 1e-8:
                return f"contour residual Q - q = {ref['Q'] - float(row['q_target']):.2e}"
            if reference.rel_err(float(row["acceptance_probability"]), ref["C"]) > 1e-9:
                return f"contour C differs from mpmath at lam={lam}"
        return None

    def _check_fig3(self, op, path):
        return self._check_contour(op, path, 4 * 200)

    def _check_fig6(self, op, path):
        return self._check_contour(op, path, 2 * 4 * 200)

    def _check_optimal_lambda(self, op, path):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["feasible"]:
            return "optimal-lambda reported infeasible"
        x0 = reference.threshold_for_q(rec["solution"], rec["q"], rec["eta"])
        c = reference.closed_form(rec["solution"], x0, rec["eta"])["C"]
        if reference.rel_err(rec["value"], c) > 1e-7:
            return f"optimal-lambda value {rec['value']!r} vs mpmath {c!r}"
        return None

    def _check_x0_for_q(self, op, path):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["feasible"]:
            return "x0-for-q reported infeasible"
        q = reference.closed_form(rec["lambda"], rec["solution"], rec["eta"])["Q"]
        if abs(q - rec["q"]) > 1e-8:
            return f"x0-for-q residual {q - rec['q']:.2e}"
        return None

    @staticmethod
    def describe(op: dict) -> str:
        return " ".join(op["argv"][:-2])


WORKLOADS = {w.name: w for w in (StrongSqueezing, CliSweeps, MonteCarlo)}
