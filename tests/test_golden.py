"""CLI outputs compared byte for byte with files written before the array paths.

The files under ``tests/data/golden`` were written by the scalar,
point-by-point implementation that the broadcast closed forms replaced;
``sweep.json``, ``fig3.csv`` and ``fig6.json`` by the row-by-row
formatters that the column tables replaced.  ``sweep.csv``, ``sweep.json``,
``fig3.csv`` and ``fig6.json`` were regenerated when C became erfc of the
reduced threshold that the moments read; that moved only C cells, each
within the mpmath bound of ``test_matches_mpmath_within_erfc_condition``.
``stats.json`` was regenerated when ``stats`` without ``--pn`` stopped
computing p_n and dropped ``n_max`` and ``truncation_error_bound``, which
describe p_n; its other bytes did not move.  ``stats.json``,
``stats_pn.json``, ``sweep.csv``, ``sweep.json``, ``fig2.csv``,
``fig3.csv`` and ``fig6.json`` were regenerated when the moments came to
be derived from log G: mean, second factorial moment and Q cells, and the
contour roots with the C at them, moved; C cells off the contours, the
p_n and every header did not.  ``sweep.json`` and ``fig6.json`` were
regenerated when a number that is missing (Q at lam = 0, a contour that no
threshold reaches) came to be written as ``null`` rather than ``""``: its
12 Q cells and 21 ``x0_required`` and 21 ``acceptance_probability`` cells
changed, no other line; the CSV files already left such cells empty.
``sweep.csv`` and ``sweep.json`` were regenerated when the ``error`` column
came to hold only the text of an error raised for a point: the 12 ``error``
cells of the lam = 0 rows, which named the undefined Q, became empty.
A change that moves one output digit of these commands fails here; a
change that means to move digits regenerates the file and says why.

fig4, fig5 and ``stats --pn`` print p_n, which come from numpy's FFT and
``exp``; their last bits follow the numpy build (numpy 2.0 replaced the
FFT), so those three are compared only on numpy 2 or later.  The other
outputs are closed forms of ``sqrt``, ``erfc``/``erfcx`` and the four
basic operations.

``montecarlo.json`` pins ``monte_carlo_experiment``'s draws at four
points: the integer histogram of accepted orders, the accepted count and
the diagnostics, as the sampler gave them before its walk dropped
finished shots by index and took int32 exponents.
"""

import json
import pathlib

import numpy as np
import pytest

from quadherald import AcceptanceWindow, DetectorModel, Squeezing, monte_carlo_experiment
from quadherald.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
FFT_DEPENDENT = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="p_n bytes follow numpy's FFT, which numpy 2.0 replaced")

COMMANDS = [
    pytest.param("stats.json", ["stats", "--lambda", "0.25", "--x0", "2"], id="stats"),
    pytest.param("stats_pn.json", ["stats", "--pn", "--lambda", "0.3", "--x0", "1.5",
                                   "--eta", "0.8", "--nbar", "0.2"],
                 id="stats-pn", marks=FFT_DEPENDENT),
    # lam = 0 gives an empty Q and an empty error cell; x0 = 0 and 40,
    # eta < 1, nbar > 0
    pytest.param("sweep.csv", ["sweep", "--lambda", "0,0.3,0.9", "--x0", "0,1.5,40",
                               "--eta", "0.7,1", "--nbar", "0,0.5",
                               "--quantities", "C,mean,second_factorial,Q"], id="sweep"),
    pytest.param("sweep.json", ["sweep", "--lambda", "0,0.3,0.9", "--x0", "0,1.5,40",
                                "--eta", "0.7,1", "--nbar", "0,0.5",
                                "--quantities", "C,mean,second_factorial,Q",
                                "--format", "json"], id="sweep-json"),
    pytest.param("fig2.csv", ["figure", "fig2"], id="fig2"),
    # infeasible contour lanes give empty cells (null in fig6.json) and false
    pytest.param("fig3.csv", ["figure", "fig3"], id="fig3"),
    pytest.param("fig4.csv", ["figure", "fig4"], id="fig4", marks=FFT_DEPENDENT),
    pytest.param("fig5.csv", ["figure", "fig5"], id="fig5", marks=FFT_DEPENDENT),
    pytest.param("fig6.json", ["figure", "fig6", "--format", "json"], id="fig6-json"),
]


@pytest.mark.parametrize("name, argv", COMMANDS)
def test_output_matches_golden_bytes(name, argv, tmp_path):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


MONTE_CARLO = json.loads((GOLDEN / "montecarlo.json").read_text())


@pytest.mark.parametrize("point", MONTE_CARLO,
                         ids=[f"lam{p['lam']}" for p in MONTE_CARLO])
def test_monte_carlo_draws_match_golden(point):
    # every shot's draw pinned through the integer histogram of accepted
    # orders; floats formed by dot products (mean, Q, standard errors)
    # follow the BLAS build and are left out.  Points: an ideal detector
    # at lam = 0.25, 0.994 and 0.999 (the last at 3000 shots), and
    # eta = 0.8, n_bar = 0.5 at lam = 0.9 over two full chunks and a
    # partial one
    res = monte_carlo_experiment(
        Squeezing(point["lam"]), AcceptanceWindow.threshold(point["x0"]),
        DetectorModel(eta=point["eta"], n_bar=point["n_bar"]),
        shots=point["shots"], seed=point["seed"])
    hist = np.rint(res.empirical_p * res.accepted).astype(np.int64)
    assert res.accepted == point["accepted"]
    assert hist.tolist() == point["histogram"]
    assert res.diagnostics == point["diagnostics"]
