"""The sweep scripts run end to end and agree with the library."""

import csv
import importlib.util
from pathlib import Path

import pytest

from magcp import EnvironmentSpec, Geometry, PerfectConductor, \
    QuadratureConfig
from magcp.cli import EXIT_NOT_CONVERGED, EXIT_OK
from magcp.mechanics import force_breakdown, spin_threshold
from magcp.potentials import potential_breakdown

from conftest import make_particle

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GRID = ["--surface", "pc", "--zmin", "0.1", "--zmax", "1", "--points", "2"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, tmp_path, *args, grid=GRID):
    """The script's exit status and CSV rows."""
    out = tmp_path / f"{name}.csv"
    code = load_script(name).main([*grid, *args, "--out", str(out)])
    with open(out, newline="") as fh:
        return code, list(csv.DictReader(fh))


def test_threshold_vs_distance(tmp_path):
    code, rows = run_script("threshold_vs_distance", tmp_path,
                            "--no-gravity")
    assert code == EXIT_OK
    assert [float(r["z_tilde"]) for r in rows] == pytest.approx([0.1, 1.0])
    p = make_particle(spin=1.0)
    quad = QuadratureConfig(rel_tol=1e-6)
    for row in rows:
        geo = Geometry(float(row["z_tilde"]) / p.k_e)
        th = spin_threshold(p, PerfectConductor(), geo, quad,
                            environment=EnvironmentSpec(g=0.0))
        assert float(row["spin_with_static"]) == pytest.approx(
            th.with_static, rel=1e-9)
        assert float(row["spin_without_static"]) == pytest.approx(
            th.without_static, rel=1e-9)


def test_sweep_potentials(tmp_path):
    code, rows = run_script("sweep_potentials", tmp_path)
    assert code == EXIT_OK
    assert len(rows) == 2
    p = make_particle(spin=100.0)
    quad = QuadratureConfig(rel_tol=1e-6)
    for row in rows:
        geo = Geometry(float(row["z_tilde"]) / p.k_e)
        pb = potential_breakdown(p, PerfectConductor(), geo, quad)
        fb = force_breakdown(p, PerfectConductor(), geo, quad)
        for column, value in (("u_e", pb.u_e_minus),
                              ("u_m_broadband", pb.u_m_minus),
                              ("u_m_static", pb.u_m_z),
                              ("u_total", pb.total_ground),
                              ("f_e", fb.f_e), ("f_m_broadband", fb.f_m_minus),
                              ("f_m_static", fb.f_m_z),
                              ("f_gravity", fb.f_gravity),
                              ("f_total", fb.f_total)):
            assert float(row[column]) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("name", ["sweep_potentials",
                                  "threshold_vs_distance"])
def test_non_converged_row_exits_4(tmp_path, capsys, name):
    # the broadband magnetic shift on Drude gold does not converge at
    # z_tilde 1e-3; the row is still written
    out = tmp_path / f"{name}.csv"
    code, rows = run_script(name, tmp_path, "--rel-tol", "1e-6", grid=[
        "--surface", "drude", "--zmin", "1e-3", "--zmax", "1e-3",
        "--points", "1"])
    assert code == EXIT_NOT_CONVERGED
    assert len(rows) == 1
    assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
