"""The block-drawn placement and LOS values against scalar draws.

`scenario.build_topology` and `engine._link_budget` take their random
numbers from the generator in blocks.  `reference_placement` draws the
same values one scalar `Generator.uniform` call at a time, so every UE
coordinate and every received power must be equal, bit for bit.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cdss_sim.domains import DOMAINS
from cdss_sim.engine import _link_budget
from cdss_sim.scenario import CASES, _in_sectors, build_topology, default_scenario

import reference_placement

SRC = Path(__file__).resolve().parents[1] / "src"


def shapes():
    """The default layout and its edge shapes: no UEs per cell or per beam,
    one site, one sector, the smallest ISD, and a four-sector site; two-
    and six-sector sites, whose wedges reject half and five sixths of the
    pairs inside the hexagon; and one six-sector site of 200 UEs per cell,
    which extends the first draw block more than once."""
    cfg = default_scenario()
    topo = cfg.topology
    for change in ({}, {"ues_per_tn_cell": 0}, {"ues_per_beam": 0},
                   {"ues_per_tn_cell": 0, "ues_per_beam": 0}, {"num_sites": 1},
                   {"sectors_per_site": 1}, {"isd_m": DOMAINS[("topology", "isd_m")][0]},
                   {"sectors_per_site": 2}, {"sectors_per_site": 6},
                   {"num_sites": 1, "sectors_per_site": 4, "ues_per_tn_cell": 25},
                   {"num_sites": 1, "sectors_per_site": 6, "ues_per_tn_cell": 200}):
        yield replace(cfg, topology=replace(topo, **change))


def test_block_draws_match_scalar_draws():
    compared = 0
    for cfg in shapes():
        for seed in range(1, 13):
            for case_id in (1, 2):                  # TN only, and with beams
                topo = build_topology(cfg, CASES[case_id], seed)
                want = reference_placement.place_ues(cfg, topo.cells, seed)
                assert [(ue.ue_id, ue.xy, ue.kind) for ue in topo.ues] == \
                    [(ue.ue_id, ue.xy, ue.kind) for ue in want], (cfg.topology, seed)
                rx_dbm = _link_budget(topo.cells, topo.beams, topo.ues, cfg.radio, seed)
                ref = reference_placement.link_budget(topo.cells, topo.beams, want,
                                                      cfg.radio, seed)
                assert rx_dbm.shape == ref.shape
                assert rx_dbm.tolist() == ref.tolist(), (cfg.topology, seed, case_id)
                compared += len(topo.ues)
    assert compared > 10_000


def in_sector(dx, dy, radius, azimuth, wedge) -> bool:
    """The scalar model's accept test of one (dx, dy) pair."""
    if not reference_placement._in_hexagon(dx, dy, radius) or math.hypot(dx, dy) < 1.0:
        return False
    bearing = math.degrees(math.atan2(dy, dx))
    return abs(reference_placement._wrap_deg(bearing - azimuth)) <= wedge / 2.0


def walk(x, steps):
    """`x` and the `steps` floats on each side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_array_decisions_match_scalar_tests_on_each_side_of_every_edge():
    # Pairs a few floats either side of a wedge edge, a hexagon edge and
    # the mast's 1 m circle, where numpy's arctan2 and the products can
    # round apart from `math`: `_in_sectors` must still give the scalar
    # test's answer for every pair and azimuth.
    radius = default_scenario().topology.isd_m / math.sqrt(3.0)
    apothem = math.sqrt(3.0) / 2.0 * radius
    for sectors in (1, 2, 3, 4, 6):
        wedge = 360.0 / sectors
        azimuths = [k * wedge for k in range(sectors)]
        pairs = []
        for az in azimuths:
            for edge in (az - wedge / 2.0, az + wedge / 2.0):
                theta = math.radians(edge)
                for r in np.geomspace(1.5, 0.95 * apothem, 40).tolist():
                    x = r * math.cos(theta)
                    pairs += [(x, y) for y in walk(r * math.sin(theta), 24)]
        for phi in range(30, 360, 60):              # the hexagon's six edges
            c, s = math.cos(math.radians(phi)), math.sin(math.radians(phi))
            for t in (-0.5, -0.1, 0.0, 0.3):
                x = apothem * c - t * radius * s
                pairs += [(x, y) for y in walk(apothem * s + t * radius * c, 8)]
                pairs += [(u, apothem * s + t * radius * c) for u in walk(x, 8)]
        for theta in np.linspace(-math.pi, math.pi, 97).tolist():   # the mast's circle
            pairs += [(x, math.sin(theta)) for x in walk(math.cos(theta), 8)]
        dx, dy = np.array(pairs).T
        got = _in_sectors(dx, dy, radius, azimuths, wedge)
        want = [[i for i, (x, y) in enumerate(pairs) if in_sector(x, y, radius, az, wedge)]
                for az in azimuths]
        assert got == want, sectors
        assert 0 < sum(map(len, got)) < len(pairs) * sectors


def test_placement_range_overflow_ends(tmp_path):
    # Each TN UE is rejection-sampled from [-R, R]^2 around its site.  Once
    # R - (-R) overflows, every candidate is inf or nan and none is ever
    # accepted, so the placement must raise instead of looping (numpy's
    # own check).  Either side of that edge, `validate` and `run` end with
    # exit 1, and the placement called without validation ends too.
    below, above = 1.556e308, 1.557e308
    for isd, finite in ((below, True), (above, False)):
        radius = isd / math.sqrt(3.0)
        assert math.isfinite(radius - -radius) is finite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    scenario = tmp_path / "wide.ini"
    for isd in (below, above):
        scenario.write_text(f"[topology]\nisd_m = {isd!r}\n")
        for argv in (["validate"], ["run", "--case", "3", "--out", str(tmp_path / "out")]):
            done = subprocess.run([sys.executable, "-m", "cdss_sim.cli", *argv,
                                   "--scenario", str(scenario)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 1, (isd, argv, done.stderr)
            assert done.stderr.startswith("configuration error: [topology] isd_m")
    # the placement itself, without validation: both ISDs in one process
    place = ("from dataclasses import replace; import cdss_sim.scenario as s\n"
             "for isd in (%r, %r):\n"
             "    cfg = s.default_scenario()\n"
             "    cfg = replace(cfg, topology=replace(cfg.topology, isd_m=isd))\n"
             "    try:\n"
             "        print(len(s.build_topology(cfg, s.CASES[3], 1).ues))\n"
             "    except OverflowError as exc:\n"
             "        print('OverflowError', exc)\n" % (below, above))
    done = subprocess.run([sys.executable, "-c", place], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["105", "OverflowError high - low range exceeds valid bounds"]
