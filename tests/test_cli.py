"""End-to-end command-line behavior against the bundled tiny system."""

import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sinkplan import cli, mps, runner, simplex
from sinkplan.cli import main
from sinkplan.formulation import assemble
from sinkplan.lp import certify
from sinkplan.sweep import SweepResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_clean_config(self, capsys, tiny_config):
        code, out, _ = run(capsys, "validate", str(tiny_config))
        assert code == 0
        assert "OK" in out

    def test_broken_config_lists_violations(self, capsys, tmp_path,
                                            tiny_config):
        dst = tmp_path / "broken"
        shutil.copytree(tiny_config, dst)
        res = dst / "resources.csv"
        res.write_text(res.read_text().replace("0.3", "1.3"))
        code, out, err = run(capsys, "validate", str(dst))
        assert code == 1
        assert "min_stable" in err or "min_stable" in out


class TestSolve:
    def test_metrics_report_printed(self, capsys, tiny_config):
        code, out, _ = run(capsys, "solve", str(tiny_config))
        assert code == 0
        assert "average_price = " in out
        assert "sink_capacity_mw = " in out

    def test_no_sink_flag(self, capsys, tiny_config):
        code, out, _ = run(capsys, "solve", str(tiny_config), "--no-sink")
        assert code == 0
        assert "sink_capacity_mw = 0.0" in out

    def test_mps_export_and_external_round_trip(self, capsys, tiny_config,
                                                tmp_path):
        sol = tmp_path / "tiny.sol"
        code, out, _ = run(capsys, "solve", str(tiny_config),
                           "--mps-out", str(tmp_path), "--sol-out", str(sol))
        assert code == 0
        assert (tmp_path / "tiny.mps").exists()
        assert sol.exists()
        code2, out2, _ = run(capsys, "solve", str(tiny_config),
                             "--sol-in", str(sol))
        assert code2 == 0
        line = next(l for l in out.splitlines() if l.startswith("objective"))
        line2 = next(l for l in out2.splitlines() if l.startswith("objective"))
        assert line == line2

    def test_mps_export_with_external_solution(self, capsys, tiny_config,
                                               tmp_path, monkeypatch):
        sol = tmp_path / "tiny.sol"
        code, out, _ = run(capsys, "solve", str(tiny_config),
                           "--mps-out", str(tmp_path), "--sol-out", str(sol))
        assert code == 0
        calls = []
        monkeypatch.setattr(cli, "assemble",
                            lambda sc: calls.append(sc) or assemble(sc))
        again = tmp_path / "again"
        code2, out2, _ = run(capsys, "solve", str(tiny_config),
                             "--mps-out", str(again),
                             "--sol-in", str(sol))
        assert code2 == 0
        assert len(calls) == 1
        assert ((again / "tiny.mps").read_text()
                == (tmp_path / "tiny.mps").read_text())
        # the external solution certified and gave the same report
        assert out2.splitlines()[1:] == out.splitlines()[1:-1]

    def test_mps_only_stops_before_solving(self, capsys, tiny_config,
                                           tmp_path):
        code, out, _ = run(capsys, "solve", str(tiny_config),
                           "--mps-out", str(tmp_path), "--mps-only")
        assert code == 0
        assert "average_price" not in out

    def test_mps_only_needs_mps_out(self, capsys, tiny_config):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tiny_config), "--mps-only"])
        assert exc.value.code == 2
        assert "--mps-out" in capsys.readouterr().err

    def test_mps_out_assembles_once(self, capsys, tiny_config, tmp_path,
                                    monkeypatch):
        calls = []
        counted = lambda sc: calls.append(sc) or assemble(sc)  # noqa: E731
        monkeypatch.setattr(cli, "assemble", counted)
        monkeypatch.setattr(runner, "assemble", counted)
        code, out, _ = run(capsys, "solve", str(tiny_config),
                           "--mps-out", str(tmp_path))
        assert code == 0
        assert "average_price = " in out
        assert len(calls) == 1

    def test_reads_no_sweep_txt(self, capsys, tiny_config, tmp_path):
        """solve reads no grid, so a fault in sweep.txt is not its fault;
        validate checks the whole config and still refuses it."""
        config = tmp_path / "tiny"
        shutil.copytree(tiny_config, config)
        sweep_txt = config / "sweep.txt"
        sweep_txt.write_text(sweep_txt.read_text().replace(
            "capex_usd_per_kw = 200, 800", "capex_usd_per_kw = -5"))
        code, out, _ = run(capsys, "solve", str(config))
        assert code == 0
        assert "sink_capacity_mw = " in out
        code, _, err = run(capsys, "validate", str(config))
        assert (code, err) == (1, "error: sweep.txt: key 'capex_usd_per_kw': "
                                  "must be in [0, 1e+30], got -5.0\n")

    def test_run_without_an_optimum_prints_its_status(self, capsys,
                                                      tiny_config, monkeypatch):
        monkeypatch.setattr(simplex, "_max_iter", lambda ws: 0)
        code, out, _ = run(capsys, "solve", str(tiny_config))
        assert (code, out) == (1, "status = iteration_limit\n")

    def test_garbage_solution_file_rejected(self, capsys, tiny_config,
                                            tmp_path):
        sol = tmp_path / "garbage.sol"
        sol.write_text("this is not a solution\n")
        code, out, err = run(capsys, "solve", str(tiny_config),
                             "--sol-in", str(sol))
        assert code == 1
        assert str(sol) in err
        assert "average_price" not in out


class TestCertify:
    def test_round_trip_certifies(self, capsys, tiny_config, tmp_path):
        sol = tmp_path / "tiny.sol"
        run(capsys, "solve", str(tiny_config), "--mps-out", str(tmp_path),
            "--sol-out", str(sol))
        code, out, _ = run(capsys, "certify",
                           str(tmp_path / "tiny.mps"), str(sol))
        assert code == 0
        assert "duality_gap" in out

    @pytest.mark.parametrize("status", ["optimal", "iteration_limit"])
    def test_solution_certified_once(self, capsys, tiny_config, tmp_path,
                                     monkeypatch, status):
        sol = tmp_path / "tiny.sol"
        run(capsys, "solve", str(tiny_config), "--mps-out", str(tmp_path),
            "--sol-out", str(sol))
        sol.write_text(sol.read_text().replace(
            "STATUS optimal", f"STATUS {status}", 1))
        calls = []

        def counted(lp, solution):
            calls.append(solution.status)
            return certify(lp, solution)

        monkeypatch.setattr(mps, "certify", counted)
        code, out, _ = run(capsys, "certify",
                           str(tmp_path / "tiny.mps"), str(sol))
        assert code == 0
        assert f"status = {status}" in out
        assert calls == [status]

    def test_corrupted_solution_rejected(self, capsys, tiny_config, tmp_path):
        sol = tmp_path / "tiny.sol"
        run(capsys, "solve", str(tiny_config), "--mps-out", str(tmp_path),
            "--sol-out", str(sol))
        text = []
        for ln in sol.read_text().splitlines():
            toks = ln.split()
            if toks[0] == "ROW":
                toks[2] = repr(float(toks[2]) * 3.0)
            text.append(" ".join(toks))
        sol.write_text("\n".join(text))
        code, _, err = run(capsys, "certify",
                           str(tmp_path / "tiny.mps"), str(sol))
        assert code == 1
        assert "certification" in err


class TestEconCommands:
    def test_convert_price_to_value(self, capsys):
        code, out, _ = run(capsys, "convert", "--price", "1.40",
                           "--efficiency", repr(0.8 * 3600 / 130),
                           "--vom", "1")
        assert code == 0
        value = float(out.split("=")[1])
        assert value == pytest.approx(30.0, abs=0.1)

    def test_convert_value_to_price(self, capsys):
        code, out, _ = run(capsys, "convert", "--value", "30",
                           "--efficiency", repr(0.8 * 3600 / 130),
                           "--vom", "1")
        assert float(out.split("=")[1]) == pytest.approx(1.40, abs=0.01)

    def test_curve_lists_segments(self, capsys):
        code, out, _ = run(capsys, "curve", "--annual-load", "100000",
                           "--base-price", "50")
        rows = out.strip().splitlines()
        assert rows[0] == "index,max_supply_mwh,value_usd_per_mwh"
        assert len(rows) == 1 + 35
        first = rows[1].split(",")
        assert float(first[2]) == pytest.approx(109.375)

    @pytest.mark.parametrize("value", ["-1e-3", "-2E+0", "-.5e1"])
    def test_negative_option_value_in_exponent_form(self, capsys, value):
        """argparse alone takes `-1e-3` for an option and fails the
        `--elasticity` before it; the `=` form always parsed."""
        args = ["curve", "--annual-load", "1000", "--base-price", "50"]
        code, out, err = run(capsys, *args, "--elasticity", value)
        assert (code, err) == (0, "")
        assert out == run(capsys, *args, f"--elasticity={value}")[1]

    def test_value_after_double_dash_stays_positional(self, capsys):
        code, _, err = run(capsys, "validate", "--", "-1e3")
        assert code == 1 and "-1e3" in err

    def test_curve_refuses_an_unbounded_base_price(self):
        """A curve that would grow without bound is refused before it is
        built.  Run apart, under a memory and a time limit, so that a build
        that does start fails the test instead of exhausting memory."""
        limit = 1 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]),
                          os.environ.get("PYTHONPATH", "")])))
        done = subprocess.run(
            [sys.executable, "-m", "sinkplan.cli", "curve", "--annual-load", "1000",
             "--base-price", "inf"], env=env, capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: base_price must be finite\n")


class TestSweepCommand:
    def test_sweep_writes_results(self, capsys, tiny_config, tmp_path,
                                  monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("capex_usd_per_kw = 200\n"
                        "base_price_usd_per_mwh = 50\n")
        code, out, _ = run(capsys, "sweep", str(tiny_config),
                           "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert code == 0
        assert (tmp_path / "o" / "results.csv").exists()

    def test_grid_flag_reads_no_sweep_txt(self, capsys, tiny_config, tmp_path):
        """--grid replaces the config's sweep.txt, so a fault there is not
        the run's fault."""
        config = tmp_path / "tiny"
        shutil.copytree(tiny_config, config)
        sweep_txt = config / "sweep.txt"
        sweep_txt.write_text(sweep_txt.read_text().replace(
            "capex_usd_per_kw = 200, 800", "capex_usd_per_kw = -5"))
        code, _, err = run(capsys, "sweep", str(config), "--mps-only",
                           "--out", str(tmp_path / "own"))
        assert (code, err) == (1, "error: sweep.txt: key 'capex_usd_per_kw': "
                                  "must be in [0, 1e+30], got -5.0\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("capex_usd_per_kw = 200\n"
                        "base_price_usd_per_mwh = 50\n")
        code, out, _ = run(capsys, "sweep", str(config), "--grid", str(grid),
                           "--mps-only", "--out", str(tmp_path / "o"))
        assert code == 0
        assert [p.name for p in (tmp_path / "o" / "mps").iterdir()] == [
            "cx200_bp50.mps"]

    @staticmethod
    def manifest_hash(capsys, monkeypatch, config, *argv):
        """The config_hash a sweep of `config` hands to `emit`; nothing is
        solved or written."""
        digests = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: SweepResult(
            "tiny", None, None, []))
        monkeypatch.setattr(cli, "emit", lambda result, out, config_digest: (
            digests.append(config_digest) or out / "results.csv"))
        assert run(capsys, "sweep", str(config), *map(str, argv))[0] == 0
        return digests[0]

    @staticmethod
    def grids(tmp_path):
        """Two grid files of different cells."""
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("capex_usd_per_kw = 200\nbase_price_usd_per_mwh = 50\n")
        b.write_text("capex_usd_per_kw = 800\nbase_price_usd_per_mwh = 20\n")
        return a, b

    def test_grid_run_hashes_its_grid(self, capsys, monkeypatch, tiny_config,
                                      tmp_path):
        a, b = self.grids(tmp_path)
        assert (self.manifest_hash(capsys, monkeypatch, tiny_config, "--grid", a)
                != self.manifest_hash(capsys, monkeypatch, tiny_config, "--grid", b))

    def test_grid_run_hash_ignores_sweep_txt(self, capsys, monkeypatch,
                                             tiny_config, tmp_path):
        a, _ = self.grids(tmp_path)
        config = tmp_path / "tiny"
        shutil.copytree(tiny_config, config)
        before = self.manifest_hash(capsys, monkeypatch, config, "--grid", a)
        sweep_txt = config / "sweep.txt"
        sweep_txt.write_text(sweep_txt.read_text() + "# edited\n")
        assert self.manifest_hash(capsys, monkeypatch, config, "--grid", a) == before

    def test_own_grid_passed_as_grid_hashes_as_a_plain_run(
            self, capsys, monkeypatch, tiny_config):
        assert self.manifest_hash(
            capsys, monkeypatch, tiny_config,
            "--grid", tiny_config / "sweep.txt") == self.manifest_hash(
            capsys, monkeypatch, tiny_config)

    def test_config_without_a_grid_is_refused(self, capsys, tiny_config,
                                              tmp_path):
        config = tmp_path / "tiny"
        shutil.copytree(tiny_config, config)
        (config / "sweep.txt").unlink()
        code, _, err = run(capsys, "sweep", str(config))
        assert (code, err) == (
            2, "no sweep grid: add sweep.txt to the config or pass --grid\n")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_refused(self, capsys, tiny_config, threads):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(tiny_config), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_bad_grid_value_fails_before_solving(self, capsys, tiny_config,
                                                 tmp_path, monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("capex_usd_per_kw = -5, 200\n"
                        "base_price_usd_per_mwh = 50\n"
                        "wacc = 1e40\n")
        monkeypatch.setattr(cli, "run_sweep",
                            lambda *a, **kw: pytest.fail("a cell was solved"))
        code, _, err = run(capsys, "sweep", str(tiny_config),
                           "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "grid.txt: key 'capex_usd_per_kw'" in err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("line, rule", [
        ("base_price_usd_per_mwh = 50, inf", "base_price must be finite"),
        ("base_price_usd_per_mwh = 50, 1e6", "the demand curve would have 3.2e+05 "
         "segments, more than 10000"),
    ], ids=["inf", "1e6"])
    def test_unbuildable_curve_fails_before_solving(self, capsys, tiny_config,
                                                    tmp_path, monkeypatch, line, rule):
        """Each cell's demand curve spec is made when the grid is read; the
        sweep is stubbed out, so no curve is built past that check."""
        grid = tmp_path / "grid.txt"
        grid.write_text(f"capex_usd_per_kw = 200\n{line}\n")
        monkeypatch.setattr(cli, "run_sweep",
                            lambda *a, **kw: pytest.fail("a cell was solved"))
        code, _, err = run(capsys, "sweep", str(tiny_config),
                           "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert (code, err) == (
            1, f"error: grid.txt: key 'base_price_usd_per_mwh': {rule}\n")

    def test_mps_flag_writes_every_cell(self, capsys, tiny_config, tmp_path):
        """--mps-only writes each cell's LP and solves nothing."""
        code, out, _ = run(capsys, "sweep", str(tiny_config),
                           "--out", str(tmp_path), "--mps-only")
        assert code == 0
        written = sorted(p.name for p in (tmp_path / "mps").glob("*.mps"))
        assert written == ["cx200_bp20.mps", "cx200_bp50.mps",
                           "cx200_bp80.mps", "cx800_bp20.mps",
                           "cx800_bp50.mps", "cx800_bp80.mps"]
        assert not (tmp_path / "results.csv").exists()

