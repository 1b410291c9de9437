import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import _reference as ref
import quadherald as qh
from quadherald.cli import main
from quadherald.sweeps import FigureJob, SweepSpec, build_figure, run_sweep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    """(meta, columns, rows) of a CSV output; every row has the header's length."""
    lines = text.splitlines(keepends=True)
    meta = {}
    k = 0
    while lines[k].startswith("#"):
        key, _, value = lines[k][2:].partition(": ")
        meta[key] = json.loads(value)
        k += 1
    columns, *body = csv.reader(lines[k:])
    assert all(len(cells) == len(columns) for cells in body)
    return meta, columns, [dict(zip(columns, cells)) for cells in body]


class TestStats:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "stats", "--lambda", "0.25", "--x0", "2")
        assert code == 0
        record = json.loads(out)
        s, w = qh.Squeezing(0.25), qh.AcceptanceWindow.threshold(2.0)
        assert record["mandel_q"] == qh.mandel_q(s, w)
        assert record["acceptance_probability"] == \
            qh.acceptance_probability_imperfect(s, w)
        assert record["mean_n"] == qh.mean_photon_number(s, w)
        assert record["mandel_q"] == pytest.approx(-0.216, abs=1e-3)

    def test_thermal_distribution(self, capsys):
        code, out, _ = run(capsys, "stats", "--lambda", "0.25", "--x0", "0",
                           "--pn")
        assert code == 0
        p = np.array(json.loads(out)["p"])
        expected = 0.75 * 0.25 ** np.arange(len(p))
        assert np.max(np.abs(p - expected)) <= 1e-15

    def test_passthrough_with_detector(self, capsys):
        code, out, _ = run(capsys, "stats", "--lambda", "0.3", "--x0", "1.5",
                           "--eta", "0.8")
        assert code == 0
        record = json.loads(out)
        s, w, d = qh.Squeezing(0.3), qh.AcceptanceWindow.threshold(1.5), \
            qh.DetectorModel(eta=0.8)
        assert record["acceptance_probability"] == \
            qh.acceptance_probability_imperfect(s, w, d)
        assert record["mean_n"] == qh.mean_photon_number(s, w, d)
        assert record["second_factorial"] == qh.second_factorial_moment(s, w, d)
        assert record["mandel_q"] == qh.mandel_q(s, w, d)

    def test_byte_identical_files(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["stats", "--lambda", "0.4", "--x0", "1",
                         "--eta", "0.9", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "stats", "--lambda", "0.25", "--x0", "2",
                           "--format", "csv")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert "mandel_q" in columns and len(rows) == 1
        assert float(rows[0]["mandel_q"]) == qh.mandel_q(
            qh.Squeezing(0.25), qh.AcceptanceWindow.threshold(2.0))

    @pytest.mark.parametrize("pn", [[], ["--pn"]], ids=["closed-forms", "pn"])
    def test_undefined_q_is_null(self, capsys, pn):
        # a vacuum signal: C, the mean (0) and p = [1] are defined, Q is not
        code, out, _ = run(capsys, "stats", "--lambda", "0", "--x0", "1", *pn)
        record = json.loads(out)
        assert code == 0 and record["mandel_q"] is None
        assert record["acceptance_probability"] == qh.acceptance_probability_imperfect(
            qh.Squeezing(0.0), qh.AcceptanceWindow.threshold(1.0))
        assert record["mean_n"] == record["second_factorial"] == 0.0
        assert record.get("p", [1.0]) == [1.0]

    def test_huge_threshold_without_warnings(self, capsys):
        # <n(n-1)> ~ x0^4 overflows to null; Q is at its limit -2 a lam / v,
        # which the form that cancelled terms of order x0^4 lost (null, after
        # a RuntimeWarning on stderr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "stats", "--lambda", "0.5", "--x0", "1e80")
        record = json.loads(out)
        assert code == 0 and err == ""
        assert record["second_factorial"] is None
        assert record["mean_n"] == pytest.approx(4.0 / 9.0 * 1e160, rel=1e-15)
        assert record["mandel_q"] == pytest.approx(-2.0 / 3.0, rel=1e-15)

    def test_nonconvergence_exits_3(self, capsys):
        code, _, err = run(capsys, "stats", "--pn", "--lambda", "0.99999", "--x0", "1")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("lam, x0", [
        (0.9999, 2.0),      # p_n would need more orders than the cap
        (0.99, 2443.25),    # C underflows; the root of x0-for-q at q = -0.99
    ])
    def test_closed_forms_need_no_distribution(self, capsys, lam, x0):
        code, out, _ = run(capsys, "stats", "--lambda", str(lam), "--x0", str(x0))
        assert code == 0
        record = json.loads(out)
        s, w = qh.Squeezing(lam), qh.AcceptanceWindow.threshold(x0)
        assert record["acceptance_probability"] == qh.acceptance_probability_imperfect(s, w)
        assert record["mean_n"] == qh.mean_photon_number(s, w)
        assert record["second_factorial"] == qh.second_factorial_moment(s, w)
        assert record["mandel_q"] == qh.mandel_q(s, w)
        assert "n_max" not in record and "truncation_error_bound" not in record

    def test_distribution_fields_come_with_pn(self, capsys):
        argv = ["stats", "--lambda", "0.25", "--x0", "2", "--eta", "0.9"]
        plain = json.loads(run(capsys, *argv)[1])
        full = json.loads(run(capsys, *argv, "--pn")[1])
        assert list(full) == [*plain, "n_max", "truncation_error_bound", "p"]
        assert {key: full[key] for key in plain} == plain
        assert full["n_max"] == len(full["p"]) - 1

    def test_bad_tol_exits_2_without_pn(self, capsys):
        code, _, err = run(capsys, "stats", "--lambda", "0.25", "--x0", "2", "--tol", "0")
        assert code == 2 and "tol" in err

    def test_bad_usage_exits_2(self, capsys):
        assert run(capsys, "stats", "--x0", "1")[0] == 2
        assert run(capsys, "stats", "--lambda", "1.5", "--x0", "1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2


class TestSweep:
    def test_single_point_equals_stats(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "0.25", "--x0", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        s, w = qh.Squeezing(0.25), qh.AcceptanceWindow.threshold(2.0)
        assert float(rows[0]["C"]) == qh.acceptance_probability_imperfect(s, w)
        assert float(rows[0]["Q"]) == qh.mandel_q(s, w)
        assert float(rows[0]["mean"]) == qh.mean_photon_number(s, w)

    def test_monotone_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "0.05",
                           "--x0", "0:4:41", "--quantities", "mean,Q")
        assert code == 0
        _, _, rows = parse_csv(out)
        means = [float(r["mean"]) for r in rows]
        qs = [float(r["Q"]) for r in rows]
        assert np.all(np.diff(means) > 0) and np.all(np.diff(qs) < 0)

    def test_heterodyne_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "0.001:0.9:100",
                           "--x0", "1.5", "--eta", "0.5", "--quantities", "C")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 100
        for row in rows:
            lam = float(row["lam"])
            assert float(row["C"]) == pytest.approx(
                1.0 - math.erf(1.5 * math.sqrt(1.0 - lam)), abs=1e-12)

    def test_undefined_rows_report_error_column(self, capsys):
        # Q at lam = 0 is missing, as an overflowed <n(n-1)> is; the error
        # column holds only the text of an error raised for the point
        code, out, _ = run(capsys, "sweep", "--lambda", "0,0.2", "--x0", "1",
                           "--quantities", "Q")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["Q"] == "" and rows[0]["error"] == ""
        assert rows[1]["Q"] != "" and rows[1]["error"] == ""

    def test_only_failed_points_are_empty(self, capsys):
        # lam = 0.9999 needs more orders than the cap; at lam = 0.05 the p_n
        # past the point's own N are 0.0, not missing
        code, out, _ = run(capsys, "sweep", "--lambda", "0.05,0.9999", "--x0", "1",
                           "--quantities", "p_n,wigner", "--pn-max", "40", "--radii", "0,1")
        assert code == 0
        _, columns, (done, failed) = parse_csv(out)
        cells = [col for col in columns if col.startswith(("p_", "wigner_"))]
        assert all(failed[col] == "" for col in cells) and "cap" in failed["error"]
        assert all(done[col] != "" for col in cells) and done["error"] == ""
        assert done["p_40"] == "0.0"

    def test_row_order_is_lexicographic(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "0.1,0.2",
                           "--x0", "0,1", "--quantities", "C")
        _, _, rows = parse_csv(out)
        key = [(float(r["lam"]), float(r["x0"])) for r in rows]
        assert key == [(0.1, 0.0), (0.1, 1.0), (0.2, 0.0), (0.2, 1.0)]

    def test_spec_file(self, tmp_path, capsys):
        spec = {"lam": [0.25], "x0": [2.0], "quantities": ["C", "p_n"],
                "pn_max": 4}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "sweep", "--spec", str(path))
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert "p_4" in columns
        stats = qh.photon_distribution(qh.Squeezing(0.25),
                                       qh.AcceptanceWindow.threshold(2.0))
        assert float(rows[0]["p_3"]) == float(stats.p[3])

    def test_calls_share_no_flags(self, tmp_path, capsys):
        # the parser is built once per process; the grid flags of one call
        # must not reach the next, where --spec would refuse them
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"lam": [0.3], "x0": [0.0, 1.0]}))
        first = run(capsys, "sweep", "--lambda", "0.1,0.2", "--x0", "2",
                    "--quantities", "C")
        second = run(capsys, "sweep", "--spec", str(path))
        assert (first[0], second[0]) == (0, 0)
        _, _, rows = parse_csv(second[1])
        assert [(float(r["lam"]), float(r["x0"])) for r in rows] == \
            [(0.3, 0.0), (0.3, 1.0)]

    def test_quantities_with_radii(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "0.25", "--x0", "2",
                           "--quantities", "husimi,wigner", "--radii", "0,1,2")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert {"husimi_r0", "husimi_r2", "wigner_r1"} <= set(columns)
        stats = qh.photon_distribution(qh.Squeezing(0.25),
                                       qh.AcceptanceWindow.threshold(2.0))
        assert float(rows[0]["wigner_r1"]) == qh.wigner(stats.p, 1.0)

    def test_husimi_at_an_overflowing_radius_warns_nothing(self):
        proc = subprocess.run([sys.executable, "-m", "quadherald.cli", "sweep",
                               "--lambda", "0.3", "--x0", "1", "--quantities", "husimi",
                               "--radii", "1e200"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, _, rows = parse_csv(proc.stdout)
        assert rows[0]["husimi_r0"] == "0.0"

    def test_csv_numbers_roundtrip(self, capsys):
        _, out, _ = run(capsys, "sweep", "--lambda", "0.1,0.37", "--x0",
                        "0.7,2.3")
        _, columns, rows = parse_csv(out)
        for row in rows:
            for col in columns:
                if row[col] in ("", "true", "false"):
                    continue
                token = row[col]
                assert repr(float(token)) == token or token.isdigit()

    def test_bad_spec_exits_2(self, capsys):
        assert run(capsys, "sweep", "--lambda", "0.2")[0] == 2
        assert run(capsys, "sweep", "--lambda", "0.2", "--x0", "1",
                   "--quantities", "bogus")[0] == 2

    # at 0.99999 the truncation cap fails before any profile reads the radii
    @pytest.mark.parametrize("lam", ["0.99999", "0.3"])
    def test_non_finite_radii_exit_2(self, lam, capsys):
        code, out, err = run(capsys, "sweep", "--lambda", lam, "--x0", "1",
                             "--quantities", "husimi", "--radii", "nan,inf")
        assert code == 2 and out == ""
        assert err == "error: radii must be nonnegative and finite, got nan\n"

    @pytest.mark.parametrize("spec", [
        {"lam": 0.25, "x0": [1.0]},
        {"lam": [0.25], "x0": [1.0], "quantities": ["p_n"], "pn_max": 2.5},
        {"lam": [0.25], "x0": [1.0], "tol": "1e-9"},
        {"lam": [0.25], "x0": [1.0], "quantities": ["husimi"], "radii": 3},
        {"lam": [0.25], "x0": [[1.0]]},
        {"lam": [0.25], "x0": "12"},
        {"lam": [0.25], "x0": [None]},
        {"lam": [0.25], "x0": [1.0], "quantities": 3},
        {"lam": [0.25], "x0": [1.0], "quantities": ["C", "C"]},
        {"lam": [0.25]},
        [0.25, 1.0],
        3,
        {"lam": [0.3], "x0": [True], "eta": [True], "pn_max": True, "quantities": ["p_n"]},
        {"lam": [0.3], "x0": [1.0], "eta": [True]},
        {"lam": [0.3], "x0": [1.0], "pn_max": True, "quantities": ["p_n"]},
    ])
    def test_malformed_spec_file_exits_2(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "sweep", "--spec", str(path))
        assert code == 2 and err.startswith("error: ")


class TestFigure:
    HEADERS = {"fig2": ["lam", "x0", "x0_points"],
               "fig3": ["q", "lam", "lam_points", "lam_spacing"],
               "fig4": ["lam", "x0", "tol"],
               "fig5": ["lam", "x0", "r", "r_points"],
               "fig6": ["q", "eta", "lam", "lam_points", "lam_spacing"]}

    @pytest.mark.parametrize("fig", list(HEADERS))
    def test_generates_schema_valid_csv(self, fig, tmp_path, capsys):
        out = tmp_path / f"{fig}.csv"
        code = main(["figure", fig, "--out", str(out)])
        assert code == 0
        meta, columns, rows = parse_csv(out.read_text())
        assert meta["kind"] == fig
        assert list(meta) == ["generator", "kind", *self.HEADERS[fig], "columns"]
        assert list(meta["columns"]) == columns
        assert len(rows) > 0

    @pytest.mark.parametrize("fig, flag, given, header", [
        ("fig2", "--x0", "2,0.5,1", ["lam", "x0"]),
        ("fig3", "--lambda", "0.5,0.1,0.3", ["q", "lam"]),
        ("fig6", "--lambda", "0.5,0.1,0.3", ["q", "eta", "lam"]),
    ])
    def test_overridden_grid_is_written_in_full(self, fig, flag, given, header, tmp_path):
        # no [first, last] range, point count or spacing for values a user listed
        out = tmp_path / f"{fig}.csv"
        assert main(["figure", fig, flag, given, "--out", str(out)]) == 0
        meta, _, rows = parse_csv(out.read_text())
        assert list(meta) == ["generator", "kind", *header, "columns"]
        name = "x0" if flag == "--x0" else "lam"
        assert meta[name] == [float(v) for v in given.split(",")]
        assert [float(row[name]) for row in rows[:3]] == meta[name]

    @pytest.mark.parametrize("fig,overrides", [
        ("fig4", {"tol": [1e-9]}),
        ("fig5", {"radii": [1.0]}),
        ("fig5", {"lam": [0.1, 0.2]}),
        ("fig2", {"x0": []}),
        ("fig6", {"eta": "0.9"}),
    ])
    def test_job_rejects_inputs_the_figure_does_not_take(self, fig, overrides):
        with pytest.raises(ValueError):
            FigureJob(fig, overrides)

    def test_fig4_peak_moves_up_with_threshold(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--out", str(out)]) == 0
        _, _, rows = parse_csv(out.read_text())
        peaks = {}
        for row in rows:
            x0, n, p = float(row["x0"]), int(row["n"]), float(row["p_n"])
            if x0 not in peaks or p > peaks[x0][1]:
                peaks[x0] = (n, p)
        argmaxes = [peaks[x0][0] for x0 in sorted(peaks)]
        assert argmaxes == sorted(argmaxes)
        assert argmaxes[0] == 0 and argmaxes[-1] >= 2

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "fig5"]) == 0
        assert (tmp_path / "fig5.csv").exists()

    def test_json_mirror_has_identical_fields(self, tmp_path):
        csv_path, json_path = tmp_path / "f.csv", tmp_path / "f.json"
        assert main(["figure", "fig4", "--out", str(csv_path)]) == 0
        assert main(["figure", "fig4", "--out", str(json_path),
                     "--format", "json"]) == 0
        meta, columns, rows = parse_csv(csv_path.read_text())
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == columns
        assert payload["meta"] == meta
        assert len(payload["rows"]) == len(rows)
        assert payload["rows"][0]["p_n"] == float(rows[0]["p_n"])

    def test_fig2_at_zero_squeezing_leaves_q_empty(self, tmp_path):
        # Q is 0/0 for a vacuum signal; its mean, 0, is written
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--lambda", "0,0.1", "--out", str(out)]) == 0
        _, _, rows = parse_csv(out.read_text())
        assert all((row["Q"] == "") == (row["lam"] == "0.0") for row in rows)
        assert {row["mean_n"] for row in rows if row["lam"] == "0.0"} == {"0.0"}

    def test_unknown_figure_exits_2(self, capsys):
        assert run(capsys, "figure", "fig99")[0] == 2

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["figure", "fig5", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["figure", "fig2", "--eta", "0.8"],
    ["figure", "fig3", "--x0", "1"],
    ["figure", "fig4", "--lambda", "0.1,0.2"],
    ["figure", "fig5", "--lambda", "0.1,0.2"],
    ["sweep", "--spec", "SPEC", "--lambda", "0.5", "--quantities", "C"],
    ["sweep", "--spec", "SPEC", "--quantities", "C"],
])
def test_flag_the_command_does_not_use_exits_2(argv, tmp_path, capsys):
    spec, out = tmp_path / "s.json", tmp_path / "out"
    spec.write_text(json.dumps({"lam": [0.25], "x0": [1.0]}))
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", "0,0.1", "--x0", "1", "--quantities", "C,Q"],
    ["stats", "--lambda", "0.25", "--x0", "2", "--pn"],
    ["montecarlo", "--lambda", "0.25", "--x0", "1", "--shots", "20000"],
    ["solve", "x0-min"],
    # lam = 0 rows: empty Q and an error text with a comma, on a 4-axis grid
    ["sweep", "--lambda", "0,0.3", "--x0", "0,1.5", "--eta", "0.7,1", "--nbar", "0,0.5"],
    # lam = 0.9999 needs more orders than the cap: empty p_n and wigner cells
    ["sweep", "--lambda", "0,0.5,0.9999", "--x0", "1", "--quantities", "C,Q,p_n,wigner",
     "--pn-max", "3", "--radii", "0,1"],
    ["sweep", "--lambda", "0.2,0.35", "--x0", "0,2", "--quantities", "p_n,husimi,wigner",
     "--pn-max", "8", "--radii", "0,1.5"],
    # no threshold reaches Q = -0.9: empty cells and false
    ["figure", "fig3", "--q=-0.9,-0.1", "--lambda", "0.1,0.5"],
    # <n(n-1)> overflows at x0 = 1e80: empty and null
    ["sweep", "--lambda", "0,0.5", "--x0", "1,1e80"],
    ["stats", "--lambda", "0.5", "--x0", "1e80"],
])
def test_csv_cells_match_json(argv, tmp_path):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(argv + ["--format", "csv", "--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    _, columns, rows = parse_csv(csv_path.read_text())
    payload = json.loads(json_path.read_text())
    records = payload["rows"] if argv[0] in ("sweep", "figure") else [payload]
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert columns == list(record)
        for col, value in record.items():
            cell = row[col]
            if isinstance(value, (list, dict)):
                assert json.loads(cell) == value
            elif value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == json.dumps(value)
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value


def test_table_length_is_the_row_count():
    spec = SweepSpec(lam=(0.0, 0.3), x0=(0.0, 1.0, 2.0), eta=(0.7, 1.0),
                     quantities=("C", "Q", "p_n", "husimi"), pn_max=4, radii=(0.0, 1.0))
    tables = [(run_sweep(spec), 12)] + [(build_figure(FigureJob(fig)), rows) for fig, rows
                                        in (("fig2", 603), ("fig3", 800), ("fig6", 1600))]
    for (_, columns, table), rows in tables:
        assert len(table) == rows
        assert all(len(table.columns[col]) == rows for col in columns)


def strict(name):
    """``parse_constant`` of a JSON parser that refuses NaN and Infinity."""
    raise ValueError(f"non-JSON constant {name}")


def test_csv_json_cells_have_no_nonfinite_literals(capsys):
    # NaN standard errors (no accepted shot has n > 0 at lam = 0) are null, as in JSON
    code, out, _ = run(capsys, "montecarlo", "--lambda", "0", "--x0", "1",
                       "--shots", "2000", "--format", "csv")
    assert code == 0
    _, _, rows = parse_csv(out)
    cell = json.loads(rows[0]["standard_errors"], parse_constant=strict)
    record = json.loads(run(capsys, "montecarlo", "--lambda", "0", "--x0", "1",
                            "--shots", "2000")[1])
    assert None in cell.values() and cell == record["standard_errors"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", "0,0.5", "--x0", "1,1e80"],    # Q is 0/0, <n(n-1)> overflows
    ["figure", "fig6"],                                    # contour lanes out of reach
    ["montecarlo", "--lambda", "0", "--x0", "1", "--shots", "2000"],
    ["solve", "optimal-lambda", "--q", "-0.5", "--eta", "0.45"],   # infeasible: a < 0
    ["stats", "--lambda", "0.5", "--x0", "1e80"],
], ids=["sweep", "fig6", "montecarlo", "optimal-lambda", "stats"])
def test_a_missing_number_is_null_in_json_and_empty_in_csv(argv, tmp_path):
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(csv_path)]) == 0
    payload = json.loads(json_path.read_text(), parse_constant=strict)
    values = [value for record in payload.get("rows", [payload])
              for key, value in record.items() if key != "error"]
    assert None in values and "" not in values
    _, _, rows = parse_csv(csv_path.read_text())
    assert not {cell for row in rows for cell in row.values()} & {"nan", "inf", "-inf"}


def test_cli_import_leaves_integrate_and_optimize_unloaded():
    # the package has one root-finder of its own and no quadrature
    code = ("import sys, quadherald, quadherald.cli; "
            "quadherald.minimum_poissonian_threshold(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_stats_leaves_linalg_unloaded():
    # only wigner uses scipy.linalg, and its first call imports it
    code = ("import os, sys, quadherald.cli; "
            "quadherald.cli.main(['stats', '--lambda', '0.25', '--x0', '2', '--pn', "
            "'--out', os.devnull]); "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


class TestMonteCarloCommand:
    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["montecarlo", "--lambda", "0.25", "--x0", "1",
                         "--shots", "20000", "--seed", "11",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_reports_z_scores(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--lambda", "0.25", "--x0",
                           "1", "--eta", "0.8", "--shots", "50000",
                           "--seed", "3")
        assert code == 0
        record = json.loads(out)
        assert record["analytic_Q"] == qh.mandel_q(
            qh.Squeezing(0.25), qh.AcceptanceWindow.threshold(1.0),
            qh.DetectorModel(eta=0.8))
        for key in ("C", "mean", "Q"):
            assert abs(record["z_scores"][key]) < 5.0

    def test_zero_squeezing_writes_every_key(self, capsys):
        argv = ["montecarlo", "--x0", "1", "--shots", "2000"]
        vacuum = json.loads(run(capsys, *argv, "--lambda", "0")[1])
        squeezed = json.loads(run(capsys, *argv, "--lambda", "0.3")[1])
        assert list(vacuum) == list(squeezed)
        assert vacuum["analytic_mean"] == 0.0 and vacuum["analytic_Q"] is None
        assert list(vacuum["z_scores"]) == list(squeezed["z_scores"])

    def test_bad_shots_exits_2(self, capsys):
        assert run(capsys, "montecarlo", "--lambda", "0.2", "--x0", "1",
                   "--shots", "0")[0] == 2


class TestSolveCommand:
    def test_x0_min(self, capsys):
        code, out, _ = run(capsys, "solve", "x0-min")
        record = json.loads(out)
        assert code == 0
        assert record["solution"] == pytest.approx(0.4248, abs=1e-4)

    def test_eta_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "eta-threshold", "--nbar", "0")
        assert code == 0 and json.loads(out)["solution"] == 0.5

    def test_eta_threshold_with_overflowing_nbar_exits_2(self, capsys):
        # 2 n_bar = inf made the solution nan, printed as null with exit 0
        code, out, err = run(capsys, "solve", "eta-threshold", "--nbar", "1e308")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_x0_for_q(self, capsys):
        code, out, _ = run(capsys, "solve", "x0-for-q", "--lambda", "0.25",
                           "--q", "-0.216")
        record = json.loads(out)
        assert code == 0 and record["feasible"]
        assert record["solution"] == pytest.approx(2.0, abs=0.02)

    def test_x0_for_q_beyond_x0_256(self, capsys):
        # the root, 2448.6, lies past the old bracket cap of x0 = 256
        code, out, _ = run(capsys, "solve", "x0-for-q", "--lambda", "0.999",
                           "--q", "-0.5")
        record = json.loads(out)
        assert code == 0 and record["feasible"] is True
        assert record["solution"] == pytest.approx(2448.6063, rel=1e-7)

    @pytest.mark.parametrize("argv", [
        ["x0-for-q", "--lambda", "0.99", "--q", "-0.994"],
        ["x0-for-q", "--lambda", "0.99", "--q", "-0.9949"],
        ["x0-for-q", "--lambda", "0.99", "--q", "-0.99496"],
        ["optimal-lambda", "--q", "-0.995"],
        ["optimal-lambda", "--q", "-0.997"],
        ["optimal-lambda", "--q", "-0.998"],
    ])
    def test_contours_close_to_the_limit_are_solved(self, capsys, argv):
        # each was reported infeasible while the bracket was capped at y = 256 and
        # the scan at lam = 0.999; Q's limit -2 lam / (1 + lam) is below each q
        code, out, _ = run(capsys, "solve", *argv)
        record = json.loads(out)
        assert code == 0 and record["feasible"] is True
        if argv[0] == "x0-for-q":
            exact = ref.threshold_for_q(0.99, record["q"])
            assert abs(record["solution"] - exact) <= 1e-12 * exact
        else:                       # above the contour's edge, lam_min = -q / (2 + q)
            assert -record["q"] / (2.0 + record["q"]) < record["solution"] < 1.0

    def test_optimal_lambda_boundary(self, capsys):
        code, out, _ = run(capsys, "solve", "optimal-lambda", "--q", "0")
        record = json.loads(out)
        assert code == 0 and record["boundary"]
        assert record["value"] == pytest.approx(0.548, abs=0.005)

    def test_infeasible_is_not_an_error_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "x0-for-q", "--lambda", "0.2",
                           "--q", "0", "--eta", "0.45")
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_missing_params_exit_2(self, capsys):
        assert run(capsys, "solve", "x0-for-q", "--q", "0")[0] == 2
        assert run(capsys, "solve", "optimal-lambda")[0] == 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quadherald.cli", "solve",
                           "eta-threshold", "--nbar", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution"] == 0.75
