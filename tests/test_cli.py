import json
import math

import numpy as np
import pytest

from sqatoms.cli import ScanSpec, main, parse_initial_state
from sqatoms.model import KET_A
from sqatoms import ParameterError

C0_N1 = 2.0 * math.sqrt(2.0) / 3.0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return meta, header, rows


class TestScanSpec:
    def test_grid(self):
        spec = ScanSpec("N", 0.0, 1.0, 5)
        assert np.allclose(spec.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ParameterError):
            ScanSpec("N", 1.0, 0.0, 5)
        with pytest.raises(ParameterError):
            ScanSpec("N", 0.0, 1.0, 1)
        with pytest.raises(ParameterError):
            ScanSpec("Q", 0.0, 1.0, 5)


class TestInitialStateSpecs:
    def test_named_states(self):
        rho = parse_initial_state("a")
        assert np.max(np.abs(rho.matrix - np.outer(KET_A, KET_A.conj()))) < 1e-15

    def test_product_spec_ground_pair(self):
        rho = parse_initial_state("product:0,0,0,0").matrix
        assert rho[3, 3].real == pytest.approx(1.0, abs=1e-15)

    def test_product_spec_mixed_angles(self):
        rho = parse_initial_state(f"product:{math.pi},0,0,0").matrix
        # A excited, B ground -> |10><10|
        assert rho[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_file_spec_json_vector(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[0.0, 0.0], [0.70710678118654752, 0.0],
                                    [-0.70710678118654752, 0.0], [0.0, 0.0]]))
        rho = parse_initial_state(f"file:{path}")
        assert np.max(np.abs(rho.matrix - np.outer(KET_A, KET_A.conj()))) < 1e-10

    def test_file_spec_json_matrix(self, tmp_path):
        # real entries and [re, im] pairs take the same 4x4 route
        target = np.outer(KET_A, KET_A.conj()).real
        for cells in (target.tolist(), [[[v, 0.0] for v in row] for row in target.tolist()]):
            path = tmp_path / "rho.json"
            path.write_text(json.dumps(cells))
            rho = parse_initial_state(f"file:{path}")
            assert np.max(np.abs(rho.matrix - target)) < 1e-15

    def test_file_spec_npy_matrix(self, tmp_path):
        path = tmp_path / "rho.npy"
        np.save(path, np.outer(KET_A, KET_A.conj()))
        rho = parse_initial_state(f"file:{path}")
        assert np.max(np.abs(rho.matrix - np.outer(KET_A, KET_A.conj()))) < 1e-15

    def test_unknown_spec(self):
        with pytest.raises(ParameterError):
            parse_initial_state("w")


class TestEvolveCommand:
    def test_header_format_contract(self, capsys):
        code, out, _ = run(capsys, "evolve", "--N", "0.5", "--min-uncertainty",
                           "--gamma-hat", "1", "--t", "1", "--samples", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# sqatoms evolve v")
        assert lines[1].startswith("# N=0.5 Mabs=")
        assert "gamma0=1 gamma_hat=1 omega_dd=0 delta=0" in lines[1]
        assert lines[2].startswith("# init=g t=1 samples=3")
        assert lines[3] == "t,rho_ee,rho_ss,rho_aa,rho_gg,re_rho_eg,im_rho_eg,concurrence,fidelity"
        assert all(len(ln.split(",")) == 9 for ln in lines[4:])

    def test_dicke_relaxation_concurrence(self, capsys):
        code, out, _ = run(capsys, "evolve", "--N", "1", "--Mabs", "1.41421356237309",
                           "--gamma-hat", "1", "--delta", "0", "--init", "g",
                           "--t", "60", "--samples", "13")
        assert code == 0
        _, header, rows = parse_csv(out)
        final = rows[-1]
        assert final[header.index("concurrence")] == pytest.approx(C0_N1, abs=1e-6)
        assert final[header.index("fidelity")] == pytest.approx(0.0, abs=1e-9)

    def test_decoupled_antisymmetric_state_is_static(self, capsys):
        code, out, _ = run(capsys, "evolve", "--N", "1.5", "--Mabs", "0.8",
                           "--gamma-hat", "1", "--init", "a", "--t", "10", "--samples", "6")
        assert code == 0
        _, header, rows = parse_csv(out)
        for col in ("rho_ee", "rho_ss", "rho_aa", "rho_gg", "concurrence", "fidelity"):
            vals = rows[:, header.index(col)]
            assert np.max(np.abs(vals - vals[0])) < 1e-12

    def test_invalid_init_spec_exits_one(self, capsys):
        code, _, err = run(capsys, "evolve", "--init", "bogus", "--t", "1")
        assert code == 1
        assert "initial state" in err


class TestScanCommands:
    def test_fig1_ordering_and_shape(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "fig1", "--points", "301", "--out", str(out_path))
        assert code == 0
        meta, header, rows = parse_csv(out_path.read_text())
        assert header == ["N", "C_delta=0", "C_delta=0.5", "C_delta=1"]
        c = {d: rows[:, i + 1] for i, d in enumerate((0.0, 0.5, 1.0))}
        assert np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0))
        assert rows[0, 1:].max() == 0.0  # N = 0 forces a vacuum bath
        for d in c:
            imax = int(c[d].argmax())
            assert 0 < imax < len(rows) - 1 and c[d][imax] > 0.0
        assert np.all(c[0.0] >= c[0.5] - 1e-12)
        assert np.all(c[0.5] >= c[1.0] - 1e-12)

    def test_fig1_rejects_dicke(self, capsys):
        code, _, err = run(capsys, "fig1", "--gamma-hat", "1", "--points", "5")
        assert code == 2

    def test_fig2_plateau_and_endpoints(self, capsys):
        code, out, _ = run(capsys, "fig2", "--points", "201")
        assert code == 0
        meta, header, rows = parse_csv(out)
        f, c = rows[:, 0], rows[:, 1]
        thr_line = next(ln for ln in meta if "F1=" in ln)
        f1 = float(thr_line.split("F1=")[1].split()[0])
        f2 = float(thr_line.split("F2=")[1].split()[0])
        assert f1 < f2  # positive-width separable window at delta = 0.8
        assert c[-1] == pytest.approx(1.0, abs=1e-12)
        inside = (f > f1 + 1e-9) & (f < f2 - 1e-9)
        assert np.all(c[inside] == 0.0)
        for segment in (f < f1 - 1e-9, f > f2 + 1e-9):
            if segment.sum() >= 3:
                assert np.max(np.abs(np.diff(c[segment], n=2))) < 1e-9

    def test_fig3_ordering_and_saturation(self, capsys):
        code, out, _ = run(capsys, "fig3", "--points", "121", "--n-max", "6")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["N", "C_delta=0", "C_delta=0.8", "C_delta=2"]
        c0, c08, c2 = rows[:, 1], rows[:, 2], rows[:, 3]
        n = rows[:, 0]
        i1 = int(np.argmin(np.abs(n - 1.0)))
        assert c0[i1] == pytest.approx(C0_N1, abs=1e-12)
        assert np.all(c0 >= c08 - 1e-12) and np.all(c08 >= c2 - 1e-12)
        assert c0[-1] > 0.97  # approaches 1 with growing squeezing
        assert np.all(np.diff(c0) >= -1e-12)

    def test_scan_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "fig2", "--points", "40")
        _, out2, _ = run(capsys, "fig2", "--points", "40")
        assert out1 == out2

    @pytest.mark.parametrize("argv, code", [
        (("fig1", "--Mabs", "2"), 1),              # the N grid crosses the |M| bound
        (("fig3", "--Mabs", "2"), 1),
        (("fig1", "--deltas", "nan,0.5"), 1),
        (("fig3", "--deltas", "0.5,inf"), 1),
        (("fig1", "--n-min", "-0.5"), 1),
        (("fig3", "--n-min", "-0.5"), 1),
        (("fig1", "--gamma0", "-1"), 1),
        (("fig2", "--gamma0", "-1"), 1),
        (("fig1", "--gamma-hat", "1"), 2),
        (("fig3", "--gamma-hat", "0.5"), 2),
        (("fig2", "--gamma-hat", "0.5"), 2),
    ])
    def test_scan_error_paths_keep_their_exit_codes(self, capsys, argv, code):
        got, out, err = run(capsys, *argv, "--points", "11")
        assert got == code, err
        assert out == "" and err.startswith("error: ")

    def test_scans_print_no_negative_zero(self, capsys):
        # thermal baths and wide separable windows give many exact zeros
        for argv in (("fig1", "--Mabs", "0", "--n-min", "-0"),
                     ("fig2", "--f-min", "-0"),
                     ("fig1", "--deltas", "-3,0,3", "--n-max", "8"),
                     ("fig3", "--deltas", "-2,0,0.8", "--n-max", "8"),
                     ("fig2", "--N", "2", "--Mabs", "0.5", "--delta", "-1.5")):
            code, out, _ = run(capsys, *argv, "--points", "101")
            assert code == 0
            _, _, rows = parse_csv(out)
            assert np.any(rows[:, 1:] == 0.0)
            cells = [c for ln in out.splitlines() if not ln.startswith("#") for c in ln.split(",")]
            assert "-0" not in cells

    def test_rows_print_as_fmt_prints_each_value(self, capsys, tmp_path):
        from sqatoms.cli import _fmt, write_table

        values = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.2345678901234567, -9.87654321e15,
                  1e16, 123456789012.0, 1234567890123.0, 0.1 + 0.2, math.pi * 1e-7,
                  math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(7)
        table = np.concatenate([values, rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)])
        table = table.reshape(-1, 4)
        path = tmp_path / "t.csv"
        write_table(str(path), "test", ["meta"], ["a", "b", "c", "d"], table)
        body = path.read_text().splitlines()[3:]
        assert body == [",".join(_fmt(v) for v in row) for row in table.tolist()]
        # integer cells (the steady matrix indices) print as _fmt prints them too
        write_table(str(path), "test", [], ["i", "j", "re"], [(0, 3, -0.25), (3, 0, 0.5)])
        assert path.read_text().splitlines()[2:] == ["0,3,-0.25", "3,0,0.5"]

    def test_parser_is_built_once(self):
        from sqatoms.cli import build_parser

        assert build_parser() is build_parser()
        first = build_parser().parse_args(["fig1", "--deltas", "1,2"])
        again = build_parser().parse_args(["fig1"])
        assert first.deltas == "1,2" and again.deltas == "0,0.5,1"

    def test_svg_output(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.svg"
        code, _, _ = run(capsys, "fig2", "--points", "31", "--format", "svg",
                         "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


class TestSteadyCommand:
    def test_closed_form_matches_dynamics(self, capsys):
        code, out_cf, _ = run(capsys, "steady", "--N", "1", "--Mabs", "1.0",
                              "--gamma-hat", "0.85", "--delta", "0.5")
        assert code == 0
        code, out_dyn, _ = run(capsys, "steady", "--N", "1", "--Mabs", "1.0",
                               "--gamma-hat", "0.85", "--delta", "0.5", "--dynamics")
        assert code == 0

        def grab(out, label):
            line = next(ln for ln in out.splitlines() if ln.startswith(label))
            return float(line.split("=")[1])

        assert grab(out_cf, "fidelity") == pytest.approx(grab(out_dyn, "fidelity"), abs=1e-6)

    def test_dicke_requires_fidelity(self, capsys):
        code, _, err = run(capsys, "steady", "--N", "1", "--Mabs", "0.5", "--gamma-hat", "1")
        assert code == 1
        assert "--fidelity" in err

    @pytest.mark.parametrize("gamma_hat, extra", [("1", ("--fidelity", "0")), ("0.85", ())])
    def test_large_n_on_the_bound(self, capsys, gamma_hat, extra):
        # the closed forms used to cancel to a 1e-4 trace error here
        code, out, err = run(capsys, "steady", "--N", "1000", "--min-uncertainty",
                             "--gamma-hat", gamma_hat, *extra)
        assert code == 0, err
        assert "concurrence = " in out

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run(capsys, "steady", "--N", "1", "--min-uncertainty",
                           "--gamma-hat", "0.85", "--dynamics", "--t-max", "0.1")
        assert code == 3

    def test_verify_reports_nullspace(self, capsys):
        code, out, _ = run(capsys, "steady", "--N", "1", "--Mabs", "1.0",
                           "--gamma-hat", "0.85", "--verify")
        assert code == 0
        assert "nullspace dimension 1" in out


class TestDecomposeCommand:
    def test_resonant_min_uncertainty_weights(self, capsys):
        code, out, _ = run(capsys, "decompose", "--N", "1", "--min-uncertainty",
                           "--fidelity", "0.3")
        assert code == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("weights"))
        assert "p = 0.3" in line and "q = 0.7" in line
        res_line = next(ln for ln in out.splitlines() if "residual" in ln)
        assert float(res_line.split("=")[1]) < 1e-10

    def test_below_critical_exits_two(self, capsys):
        code, _, err = run(capsys, "decompose", "--N", "1", "--Mabs", "0.5",
                           "--fidelity", "0.01")
        assert code == 2
        assert "critical fidelity" in err


class TestErrorPathsAndConfig:
    def test_squeezing_bound_violation_exits_one(self, capsys):
        code, _, err = run(capsys, "thresholds", "--N", "0", "--Mabs", "0.3")
        assert code == 1
        assert "sqrt(N(N+1))" in err

    def test_bad_flag_exits_one(self, capsys):
        assert main(["fig2", "--nope"]) == 1

    def test_negative_numbers_in_exponent_notation(self, capsys):
        code, out, err = run(capsys, "evolve", "--N", "1", "--Mabs", "1",
                             "--omega-dd", "-1.3162429596036418e-05", "--delta", "-1.5e-05",
                             "--Mphase", "-2.5E-1", "--t", "1", "--samples", "2")
        assert code == 0, err
        assert "Mphase=-0.25 " in out
        assert "omega_dd=-1.3162429596e-05 delta=-1.5e-05" in out
        code, out, err = run(capsys, "fig1", "--deltas", "-1e-3,0.5", "--points", "3")
        assert code == 0, err
        assert "C_delta=-0.001,C_delta=0.5" in out

    def test_non_finite_input_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "thresholds", "--N", "inf", "--min-uncertainty")
        assert code == 1
        assert "finite" in err
        assert "F_cr" not in out
        state = tmp_path / "nan.npy"
        np.save(state, np.full((4, 4), np.nan, dtype=complex))
        code, _, err = run(capsys, "evolve", "--init", f"file:{state}", "--t", "1")
        assert code == 1
        assert "non-finite" in err

    def test_config_file_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 2.0\ndelta = 0.3  # comment\nmin-uncertainty = true\n")
        code, out, _ = run(capsys, "thresholds", "--config", str(cfg), "--delta", "0.5")
        assert code == 0
        param_line = next(ln for ln in out.splitlines() if ln.startswith("# N="))
        assert "N=2" in param_line
        assert "delta=0.5" in param_line  # flag beats config
        assert f"Mabs={math.sqrt(6.0):.12g}"[:12] in param_line

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run(capsys, "thresholds", "--config", str(cfg))
        assert code == 1
        assert "wibble" in err

    def test_explicit_mabs_disables_default_min_uncertainty(self, capsys):
        code, out, _ = run(capsys, "fig2", "--N", "1", "--Mabs", "0.9", "--points", "11")
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert any("Mabs=0.9" in ln for ln in meta)

    def test_report_commands_write_csv(self, capsys, tmp_path):
        steady_out = tmp_path / "steady.csv"
        code, _, _ = run(capsys, "steady", "--N", "1", "--Mabs", "1.0",
                         "--gamma-hat", "0.85", "--out", str(steady_out))
        assert code == 0
        meta, header, rows = parse_csv(steady_out.read_text())
        assert header == ["i", "j", "re", "im"]
        assert rows.shape == (16, 4)
        trace = sum(rows[i, 2] for i in range(16) if rows[i, 0] == rows[i, 1])
        assert trace == pytest.approx(1.0, abs=1e-12)

        dec_out = tmp_path / "dec.csv"
        code, _, _ = run(capsys, "decompose", "--N", "1", "--Mabs", "0.8",
                         "--delta", "0.5", "--fidelity", "0.6", "--out", str(dec_out))
        assert code == 0
        meta, header, rows = parse_csv(dec_out.read_text())
        assert header[:3] == ["p", "q", "gibbs_weight"]
        assert rows[0, header.index("residual")] < 1e-10

        thr_out = tmp_path / "thr.csv"
        code, _, _ = run(capsys, "thresholds", "--N", "1", "--min-uncertainty",
                         "--out", str(thr_out))
        assert code == 0
        _, header, rows = parse_csv(thr_out.read_text())
        assert header == ["F_cr", "F1", "F2"]

    def test_thresholds_reference_values(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--N", "1", "--min-uncertainty")
        assert code == 0
        vals = {ln.split("=")[0].strip(): float(ln.split("=")[1])
                for ln in out.splitlines() if not ln.startswith("#")}
        expected = 2.0 * math.sqrt(2.0) / (2.0 * math.sqrt(2.0) + 3.0)
        assert vals["F1"] == pytest.approx(expected, abs=1e-12)
        assert vals["F2"] == pytest.approx(expected, abs=1e-12)
        assert vals["F_cr"] == pytest.approx(0.0, abs=1e-14)
