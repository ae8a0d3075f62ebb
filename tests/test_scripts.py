"""The sweep scripts run end to end and agree with the library."""

import csv
import importlib.util
from pathlib import Path

import pytest

from magcp import EnvironmentSpec, Geometry, PerfectConductor, \
    QuadratureConfig
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


def run_script(name, tmp_path, *args):
    out = tmp_path / f"{name}.csv"
    load_script(name).main([*GRID, *args, "--out", str(out)])
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_threshold_vs_distance(tmp_path):
    rows = run_script("threshold_vs_distance", tmp_path, "--no-gravity")
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
    rows = run_script("sweep_potentials", tmp_path)
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
