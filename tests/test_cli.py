"""Command-line interface: config handling, exit codes, bit stability."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magcp
from magcp import EnvironmentSpec, Geometry, mechanics, potentials
from magcp.cli import EXIT_CONFIG, EXIT_NO_RESULT, EXIT_NOT_CONVERGED, \
    EXIT_OK, JobConfig, UNITS_LINE, _emit, main

# Output of potential, force, threshold and equilibrium on FROZEN_DOC, as
# the CLI wrote it before its sweeps shared one loop; keys "<command>
# <format>".
EXPECTED = json.loads(
    (Path(__file__).parent / "cli_expected.json").read_text())


def base_doc(**over):
    doc = {
        "particle": {"omega_e": 6.283185307e15, "omega_m": 6.283185307e10,
                     "dipole_moment_au": 0.5, "spin": 100,
                     "gamma_0": 1.8e7},
        "surface": {"model": "perfect_conductor"},
        "grid": {"log": [0.5, 5.0, 4]},
        "output": {"format": "csv", "precision": 12},
    }
    doc.update(over)
    return doc


def write_config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, *args):
    out = tmp_path / "out.txt"
    cfg = write_config(tmp_path, doc)
    code = main([args[0], "--config", cfg, "--output", str(out), *args[1:]])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_potential_csv_output(tmp_path):
    code, text = run(tmp_path, base_doc(), "potential")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == f"# {UNITS_LINE}"
    assert lines[1].startswith("z_tilde,")
    assert len(lines) == 2 + 4


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize loads scipy.linalg, sparse, spatial and fft: 23 MB
    # and 0.3 s of start-up that only find_equilibrium needs, so it
    # imports brentq itself.  scipy.constants (19 MB of array-API
    # support) and scipy.special (24 MB with it) are not needed at all:
    # the constants are written out and _exp_e1 sums E1 itself, so the
    # plasmon-pole add-back and the perfect-conductor closed forms load
    # neither.  The acceptance criteria load only for validate
    src = str(Path(magcp.__file__).resolve().parent.parent)
    probe = ("import sys, magcp, magcp.cli; "
             "p = magcp.build_particle(omega_e=6e15, omega_m=6e10, spin=1, "
             "dipole_moment_au=0.5); g = magcp.Geometry(1.0 / p.k_e); "
             "q = magcp.QuadratureConfig(rel_tol=1e-6); "
             "magcp.decay_breakdown(p, magcp.Plasma(1.36e16), g, q, m_s=0); "
             "magcp.force_breakdown(p, magcp.PerfectConductor(), g, q); "
             "print([m in sys.modules for m in ('scipy.optimize', "
             "'scipy.special', 'scipy.constants', 'magcp.acceptance')])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False, False, False]"


def test_output_bit_stable(tmp_path):
    _, first = run(tmp_path, base_doc(), "potential")
    _, second = run(tmp_path, base_doc(), "potential")
    assert first == second


def strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, which RFC 8259
    JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_format(tmp_path):
    code, text = run(tmp_path, base_doc(), "potential", "--format", "json")
    assert code == EXIT_OK
    payload = strict_json(text)
    assert payload["units"] == UNITS_LINE
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["converged"] is True
    # no threshold exists at z_tilde 50 without the static term: the CSV
    # cell is inf, the JSON cell null
    doc = base_doc(grid={"z_tilde": [50.0]})
    code, text = run(tmp_path, doc, "threshold", "--format", "json")
    assert code == EXIT_OK
    assert strict_json(text)["rows"][0]["spin_without_static"] is None
    code, text = run(tmp_path, doc, "threshold")
    assert csv_rows(text)[0]["spin_without_static"] == "inf"
    code, text = run(tmp_path, base_doc(), "validate", "--format", "json")
    assert code == EXIT_OK
    assert [row["passed"] for row in strict_json(text)["rows"]] == \
        [True] * VALIDATE_ROWS


def test_grid_override(tmp_path):
    code, text = run(tmp_path, base_doc(), "potential",
                     "--grid", "log:1:10:2")
    assert code == EXIT_OK
    assert len(text.splitlines()) == 4


def test_unknown_field_rejected(tmp_path):
    code, _ = run(tmp_path, base_doc(unexpected=1), "potential")
    assert code == EXIT_CONFIG


def test_unknown_nested_field_rejected(tmp_path):
    doc = base_doc()
    doc["particle"]["charge"] = 1.0
    code, _ = run(tmp_path, doc, "potential")
    assert code == EXIT_CONFIG


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["potential", "--config", str(path)]) == EXIT_CONFIG


def test_missing_config_rejected(tmp_path):
    assert main(["potential", "--config",
                 str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_bad_surface_model_rejected(tmp_path):
    code, _ = run(tmp_path, base_doc(surface={"model": "mirror"}),
                  "potential")
    assert code == EXIT_CONFIG


def test_equilibrium_and_no_result(tmp_path):
    doc = base_doc(equilibrium={"bracket": [1.0, 100.0]})
    code, text = run(tmp_path, doc, "equilibrium")
    assert code == EXIT_OK
    assert "z_tilde_eq" in text
    code, _ = run(tmp_path, dict(doc, gravity=False), "equilibrium",
                  "--gravity", "off")
    assert code == EXIT_NO_RESULT


def test_nonconvergence_exit_with_partial_output(tmp_path):
    doc = base_doc(surface={"model": "drude", "omega_p": 1.36e16,
                            "gamma": 1e14},
                   grid={"z_tilde": [1.0]},
                   quadrature={"rel_tol": 1e-14, "abs_tol": 0.0,
                               "max_subdivisions": 10})
    code, text = run(tmp_path, doc, "potential")
    assert code == EXIT_NOT_CONVERGED
    assert "false" in text  # partial rows are still written


def test_equilibrium_nonconvergence_exit(tmp_path):
    # the root is still found and printed, from forces that did not converge
    doc = base_doc(surface={"model": "plasma", "omega_p": 1.36e16},
                   quadrature={"rel_tol": 1e-15, "abs_tol": 0.0,
                               "max_subdivisions": 10},
                   equilibrium={"bracket": [1.0, 100.0]})
    code, text = run(tmp_path, doc, "equilibrium")
    assert code == EXIT_NOT_CONVERGED
    assert "z_tilde_eq" in text and len(text.splitlines()) == 2 + 1


def test_threshold_subcommand(tmp_path):
    doc = base_doc(grid={"z_tilde": [0.001]})
    code, text = run(tmp_path, doc, "threshold", "--gravity", "off")
    assert code == EXIT_OK
    row = text.splitlines()[2].split(",")
    assert float(row[1]) == pytest.approx(48.45, rel=0.02)
    assert float(row[2]) == pytest.approx(4694.7, rel=0.02)


def test_threshold_computes_each_integral_once(tmp_path, component_calls):
    doc = base_doc(surface={"model": "plasma", "omega_p": 1.36e16},
                   grid={"z_tilde": [0.1, 2.0]},
                   quadrature={"rel_tol": 1e-6})
    code, text = run(tmp_path, doc, "threshold")
    assert code == EXIT_OK
    assert len(text.splitlines()) == 2 + 2
    assert component_calls == {"u_e_ground": 2, "u_m_ground_broadband": 2,
                               "u_m_static": 2}


def test_threshold_nonconvergence_exit(tmp_path):
    doc = base_doc(surface={"model": "drude", "omega_p": 1.36e16,
                            "gamma": 1e14},
                   grid={"z_tilde": [1.0]},
                   quadrature={"rel_tol": 1e-15, "abs_tol": 0.0,
                               "max_subdivisions": 10})
    code, text = run(tmp_path, doc, "threshold")
    assert code == EXIT_NOT_CONVERGED
    assert len(text.splitlines()) == 2 + 1  # the row is still written


@pytest.mark.parametrize("command", ["potential", "threshold"])
def test_non_converged_row_exits_4(tmp_path, capsys, command):
    # the broadband shifts on Drude gold do not converge at z_tilde 1e-3
    # with rel_tol 1e-13 (their inner rows stop at their rounding noise);
    # the row is still written.  Until the inner rows resolved the Drude
    # skin depth, rel_tol 1e-10 with 10 bisections failed here too.
    doc = base_doc(surface={"model": "drude", "omega_p": 1.36e16,
                            "gamma": 1e14},
                   grid={"z_tilde": [1e-3]},
                   quadrature={"rel_tol": 1e-13, "max_subdivisions": 10})
    code, text = run(tmp_path, doc, command)
    assert code == EXIT_NOT_CONVERGED
    rows = csv_rows(text)
    assert len(rows) == 1
    assert float(rows[0]["z_tilde"]) == 1e-3
    assert capsys.readouterr().out == ""


# one row per sub-check of the nine acceptance criteria
VALIDATE_ROWS = 51


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    assert main(["validate", "--config", cfg]) == EXIT_OK
    rows = csv_rows(capsys.readouterr().out)
    assert len(rows) == VALIDATE_ROWS
    assert all(row["passed"] == "true" for row in rows)
    assert sorted({row["criterion"] for row in rows}) == \
        [str(n) for n in range(1, 10)]
    # a label with a comma stays one cell
    assert "sign structure (electric attracts, magnetic repels)" in \
        [row["check"] for row in rows]


def test_validate_writes_its_output_file(tmp_path, capsys):
    code, text = run(tmp_path, base_doc(), "validate")
    assert code == EXIT_OK
    assert [row["passed"] for row in csv_rows(text)] == \
        ["true"] * VALIDATE_ROWS
    assert capsys.readouterr().out == ""


def test_validate_ignores_the_job_physics_and_quadrature(tmp_path):
    # the criteria run on their own particle, surfaces and quadrature, so
    # a job's spin, surface and tolerance cannot move a check
    first = base_doc(quadrature={"rel_tol": 1e-8})
    second = base_doc(surface={"model": "drude", "omega_p": 1.36e16,
                               "gamma": 1e14},
                      quadrature={"rel_tol": 0.05})
    second["particle"]["spin"] = 7
    outs = [run(tmp_path, doc, "validate") for doc in (first, second)]
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK


def test_validate_exits_4_when_a_criterion_fails(tmp_path, monkeypatch):
    from magcp import acceptance

    def failing():
        rows = acceptance.magnetostatic_term()
        rows[0]["passed"] = False
        return rows
    criteria = list(acceptance.CRITERIA)
    criteria[2] = failing
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    code, text = run(tmp_path, base_doc(), "validate")
    assert code == EXIT_NOT_CONVERGED
    rows = csv_rows(text)
    assert len(rows) == VALIDATE_ROWS
    assert [(row["criterion"], row["check"]) for row in rows
            if row["passed"] != "true"] == [("3", "Drude exactly zero")]


def test_csv_quotes_text_cells(tmp_path, capsys):
    # RFC 4180: a cell holding a comma, a quote or a line break is quoted
    # and its quotes doubled; other cells are written bare
    cells = ["a, b", 'say "x"', "two\nlines", "plain", ""]
    cfg = JobConfig(base_doc())
    _emit([f"c{i}" for i in range(len(cells))],
          [{f"c{i}": cell for i, cell in enumerate(cells)}], cfg)
    text = capsys.readouterr().out
    assert text.splitlines()[2].startswith('"a, b","say ""x""","two')
    assert text.endswith('",plain,\n')
    assert list(csv.reader(text.splitlines(keepends=True)[2:])) == [cells]


def test_potential_static_off(tmp_path, component_calls):
    doc = base_doc(surface={"model": "plasma", "omega_p": 1.36e16},
                   grid={"z_tilde": [0.1, 2.0]},
                   quadrature={"rel_tol": 1e-6})
    code, text = run(tmp_path, doc, "potential", "--static", "off")
    assert code == EXIT_OK
    assert component_calls == {"u_e_ground": 2, "u_m_ground_broadband": 2}
    cfg = JobConfig(doc)
    for row in csv_rows(text):
        bd = potentials.potential_breakdown(
            cfg.particle, cfg.surface,
            Geometry(float(row["z_tilde"]) / cfg.particle.k_e), cfg.quad,
            include_static=False)
        assert bd.u_m_z == 0.0 and float(row["u_m_z"]) == 0.0
        assert bd.total_ground == bd.u_e_minus + bd.u_m_minus
        assert row["total_ground"] == format(bd.total_ground, ".12e")


def test_static_and_mode_flags(tmp_path):
    doc = base_doc(grid={"z_tilde": [1.0]})
    code, with_static = run(tmp_path, doc, "force", "--static", "on")
    assert code == EXIT_OK
    code, without = run(tmp_path, doc, "force", "--static", "off")
    assert code == EXIT_OK
    row_w = with_static.splitlines()[2].split(",")
    row_o = without.splitlines()[2].split(",")
    assert float(row_w[3]) > 0.0   # magnetostatic column populated
    assert float(row_o[3]) == 0.0


def csv_rows(text):
    return list(csv.DictReader(text.splitlines()[1:]))


@pytest.mark.parametrize("surface", [
    {"model": "perfect_conductor"}, {"model": "plasma", "omega_p": 1.36e16}])
def test_force_static_off_prints_positive_zero(tmp_path, surface):
    # a static term left out is a force of +0.0, as potential prints u_m_z
    doc = base_doc(surface=surface, grid={"z_tilde": [0.3, 50.0]},
                   quadrature={"rel_tol": 1e-6})
    code, text = run(tmp_path, doc, "force", "--static", "off")
    assert code == EXIT_OK
    assert [row["f_m_z"] for row in csv_rows(text)] == \
        ["0.000000000000e+00"] * 2
    code, text = run(tmp_path, doc, "force", "--static", "off",
                     "--format", "json")
    assert code == EXIT_OK
    cells = [row["f_m_z"] for row in strict_json(text)["rows"]]
    assert cells == [0.0, 0.0]
    assert [math.copysign(1.0, cell) for cell in cells] == [1.0, 1.0]


def test_drude_force_prints_positive_zero_static(tmp_path):
    # a Drude surface has no static image, so its static slope is 0.0 and
    # f_m_z prints +0.0 with the static term on, never -0.0
    doc = base_doc(surface={"model": "drude", "omega_p": 1.36e16,
                            "gamma": 1e14},
                   grid={"z_tilde": [1e-3, 0.3, 50.0]},
                   quadrature={"rel_tol": 1e-6})
    code, text = run(tmp_path, doc, "force")
    assert code == EXIT_OK
    assert [row["f_m_z"] for row in csv_rows(text)] == \
        ["0.000000000000e+00"] * 3


def test_threshold_rows_match_library(tmp_path):
    doc = base_doc(grid={"z_tilde": [0.1, 1.0]}, quadrature={"rel_tol": 1e-6})
    code, text = run(tmp_path, doc, "threshold", "--gravity", "off")
    assert code == EXIT_OK
    cfg = JobConfig(doc)
    rows = csv_rows(text)
    assert [float(r["z_tilde"]) for r in rows] == [0.1, 1.0]
    for row in rows:
        th = mechanics.spin_threshold(
            cfg.particle, cfg.surface,
            Geometry(float(row["z_tilde"]) / cfg.particle.k_e), cfg.quad,
            environment=EnvironmentSpec(g=0.0))
        assert float(row["spin_with_static"]) == pytest.approx(
            th.with_static, rel=1e-11)
        assert float(row["spin_without_static"]) == pytest.approx(
            th.without_static, rel=1e-11)


def test_potential_and_force_rows_match_library(tmp_path):
    doc = base_doc(grid={"z_tilde": [0.1, 1.0]}, quadrature={"rel_tol": 1e-6})
    cfg = JobConfig(doc)
    for command, call in (
            ("potential", lambda geo: potentials.potential_breakdown(
                cfg.particle, cfg.surface, geo, cfg.quad)),
            ("force", lambda geo: mechanics.force_breakdown(
                cfg.particle, cfg.surface, geo, cfg.quad))):
        code, text = run(tmp_path, doc, command)
        assert code == EXIT_OK
        rows = csv_rows(text)
        assert len(rows) == 2
        for row in rows:
            expected = vars(call(
                Geometry(float(row["z_tilde"]) / cfg.particle.k_e)))
            for column, value in row.items():
                if column in ("z_tilde", "converged") or value == "":
                    continue
                assert float(value) == pytest.approx(
                    expected[column], rel=1e-11, abs=0.0), column


FROZEN_DOC = base_doc(grid={"z_tilde": [0.3, 50.0]},
                      equilibrium={"bracket": [1.0, 100.0]})


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_output_bytes_frozen(tmp_path, key):
    command, fmt = key.split()
    code, text = run(tmp_path, FROZEN_DOC, command, "--format", fmt)
    assert code == EXIT_OK
    assert text == EXPECTED[key]


def particle(**over):
    return dict(base_doc()["particle"], **over)


@pytest.mark.parametrize("command,doc,flags,field", [
    ("equilibrium", base_doc(equilibrium={"bracket": [1, 2, 3]}), [],
     "equilibrium.bracket"),
    ("equilibrium", base_doc(equilibrium={"bracket": [100, 1]}), [],
     "equilibrium.bracket"),
    ("equilibrium", base_doc(equilibrium={"bracket": [-1, 10]}), [],
     "equilibrium.bracket"),
    ("potential", base_doc(output={"precision": -1}), [], "output.precision"),
    ("potential", base_doc(output={"precision": 2.7}), [],
     "output.precision"),
    ("potential", base_doc(output={"precision": "12"}), [],
     "output.precision"),
    ("potential", base_doc(grid={"z_tilde": ["a"]}), [], "grid.z_tilde"),
    ("potential", base_doc(grid={"z_tilde": ["1"]}), [], "grid.z_tilde"),
    ("potential", base_doc(grid={"z_tilde": [float("nan")]}), [],
     "grid.z_tilde"),
    ("potential", base_doc(grid={"log": "abc"}), [], "grid.log"),
    ("potential", base_doc(grid={"log": [0.1, 10, 2.5]}), [], "grid.log"),
    ("potential", base_doc(), ["--grid", "log:1:10:x"], "--grid"),
    ("potential", base_doc(), ["--grid", "log:1:10:2.5"], "--grid"),
    ("potential", base_doc(surface={"model": "drude", "omega_p": "x",
                                    "gamma": 1e14}), [], "surface.omega_p"),
    ("potential", base_doc(surface={"model": "drude", "omega_p": 1e16}),
     [], "surface.gamma is missing"),
    ("potential", base_doc(particle={k: v for k, v in particle().items()
                                     if k != "omega_e"}),
     [], "particle.omega_e is missing"),
    ("potential", base_doc(quadrature={"rel_tol": "x"}), [],
     "quadrature.rel_tol"),
    ("potential", base_doc(quadrature={"tail_decades": "x"}), [],
     "quadrature.tail_decades"),
    ("potential", base_doc(quadrature={"max_subdivisions": 200.0}), [],
     "quadrature.max_subdivisions"),
    ("potential", base_doc(quadrature={"tail_decades": 400}), [],
     "tail_decades"),
    ("force", base_doc(environment={"g": "x"}), [], "environment.g"),
    ("force", base_doc(environment={"g": float("inf")}), [],
     "environment.g"),
    ("potential", base_doc(surface="drude"), [], "surface must be"),
    ("force", base_doc(gravity="false"), [], "gravity must be"),
    ("force", base_doc(include_static="false"), [], "include_static must be"),
    ("force", base_doc(particle=particle(gamma_0_in_hz="false")), [],
     "particle.gamma_0_in_hz"),
    ("force", base_doc(particle=particle(gamma_0_in_hz=True)), [],
     "gamma_0"),
    ("force", base_doc(particle=particle(m_s=0)), [],
     "unknown field particle.m_s"),
    ("threshold", base_doc(), ["--mode", "excited0"], "mode"),
    ("threshold", base_doc(), ["--static", "off"], "include_static"),
    ("potential", base_doc(particle=particle(spin="100")), [],
     "particle.spin"),
    ("potential", base_doc(particle=particle(spin=True)), [],
     "particle.spin"),
    ("potential", [1, 2], ["--format", "json"], "config must be"),
], ids=["bracket-3", "bracket-reversed", "bracket-negative", "precision-neg",
        "precision-float", "precision-str", "z_tilde-str", "z_tilde-numstr",
        "z_tilde-nan", "log-str", "log-float-n", "grid-flag",
        "grid-flag-float-n", "omega_p-str", "drude-no-gamma",
        "particle-no-omega_e", "rel_tol-str",
        "tail-str", "max_subdivisions-float", "tail-400", "g-str", "g-inf", "surface-str",
        "gravity-str", "static-str", "hz-str", "hz-quote-off", "m_s-retired",
        "threshold-excited0", "threshold-static-off", "spin-str", "spin-bool", "doc-list"])
def test_malformed_config_exits_2(tmp_path, capsys, command, doc, flags,
                                  field):
    # a value of the wrong JSON type is refused, never coerced, and the
    # message names the field
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert field in captured.err
    assert captured.out == ""
