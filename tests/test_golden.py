"""CLI outputs compared byte for byte with files written before the array paths.

The files under ``tests/data/golden`` were written by the scalar,
point-by-point implementation that the broadcast closed forms replaced;
``sweep.json``, ``fig3.csv`` and ``fig6.json`` by the row-by-row
formatters that the column tables replaced.  ``sweep.csv``, ``sweep.json``,
``fig3.csv`` and ``fig6.json`` were regenerated when C became erfc of the
reduced threshold that the moments read; that moved only C cells, each
within the mpmath bound of ``test_matches_mpmath_within_erfc_condition``.
A change that moves one output digit of these commands fails here; a
change that means to move digits regenerates the file and says why.

fig4, fig5 and ``stats --pn`` print p_n, which come from numpy's FFT and
``exp``; their last bits follow the numpy build (numpy 2.0 replaced the
FFT), so those three are compared only on numpy 2 or later.  The other
outputs are closed forms of ``sqrt``, ``erfc``/``erfcx`` and C ``pow``.
"""

import pathlib

import numpy as np
import pytest

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
    # lam = 0 gives the undefined-Q error text; x0 = 0 and 40, eta < 1, nbar > 0
    pytest.param("sweep.csv", ["sweep", "--lambda", "0,0.3,0.9", "--x0", "0,1.5,40",
                               "--eta", "0.7,1", "--nbar", "0,0.5",
                               "--quantities", "C,mean,second_factorial,Q"], id="sweep"),
    pytest.param("sweep.json", ["sweep", "--lambda", "0,0.3,0.9", "--x0", "0,1.5,40",
                                "--eta", "0.7,1", "--nbar", "0,0.5",
                                "--quantities", "C,mean,second_factorial,Q",
                                "--format", "json"], id="sweep-json"),
    pytest.param("fig2.csv", ["figure", "fig2"], id="fig2"),
    # infeasible contour lanes give empty cells and false
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
