"""Scenario configuration: defaults, file parsing, validation, topology.

Scenario files use a sectioned key=value format (INI syntax).  Every key
is optional and falls back to the built-in defaults, which reproduce the
reference layout: a 160-RB shared band in three groups (two coordinated),
three tri-sector sites at 7.5 km ISD, three satellite beams with the third
one far outside the terrestrial region, and 10/5 UEs per cell/beam area.
Unknown sections or keys are rejected with the offending key path.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .band import build_band_plan, initial_allocation
from .controller import CdssConfig
from .domains import check_domains
from .errors import ConfigurationError
from .radio import NtnBeam, RadioParams, TnCell, Ue


@dataclass(frozen=True)
class BandParams:
    total_rbs: int = 160
    num_groups: int = 3
    coordinated: Tuple[bool, ...] = (True, True, False)
    rb_bandwidth_hz: float = 180_000.0


@dataclass(frozen=True)
class TopologyParams:
    isd_m: float = 7500.0
    num_sites: int = 3
    sectors_per_site: int = 3
    ues_per_tn_cell: int = 10
    ues_per_beam: int = 5
    # Beams 1 and 2 overlap the terrestrial region; beam 3 is remote, which
    # is why its frequency group defaults to uncoordinated.
    beam_centers_m: Tuple[Tuple[float, float], ...] = (
        (2000.0, 1500.0),
        (6000.0, 4000.0),
        (70000.0, 0.0),
    )
    beam_groups: Tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class TrafficParams:
    ld_tn_kbps: float = 400.0
    ld_ntn_kbps: float = 400.0
    hd_tn_kbps: float = 4000.0
    hd_ntn_kbps: float = 1200.0


@dataclass(frozen=True)
class SimParams:
    total_s: float = 10.0
    warmup_s: float = 5.0
    epoch_ms: float = 10.0


@dataclass(frozen=True)
class ScenarioConfig:
    band: BandParams = BandParams()
    cdss: CdssConfig = CdssConfig()
    radio: RadioParams = RadioParams()
    topology: TopologyParams = TopologyParams()
    traffic: TrafficParams = TrafficParams()
    sim: SimParams = SimParams()


class SimCase(NamedTuple):
    """One row of the four-case study matrix."""

    case_id: int
    name: str
    ntn_enabled: bool
    high_demand: bool


CASES: Dict[int, SimCase] = {
    1: SimCase(1, "tn_only_ld", ntn_enabled=False, high_demand=False),
    2: SimCase(2, "cdss_ld", ntn_enabled=True, high_demand=False),
    3: SimCase(3, "tn_only_hd", ntn_enabled=False, high_demand=True),
    4: SimCase(4, "cdss_hd", ntn_enabled=True, high_demand=True),
}


# The largest run `validate_scenario` accepts.  Dealing RBs, grant tables
# and the byte-factor refresh cost about epochs x (transmitters x RBs x
# groups + UEs x (transmitters + groups)) work units; 7.3e6 for the defaults.
# Only grants over several byte rows pay per declined (UE, RB); one row, per UE.
MAX_RUN_WORK = 10**9


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


# ---------------------------------------------------------------------------
# parsing / serialization

_SECTION_TYPES = {f.name: type(f.default) for f in dataclass_fields(ScenarioConfig)}


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_like(default, text: str, path: str):
    """`text` as a value of `default`'s type: a `_BOOLS` word, an int, a
    float, or a tuple of values like `default[0]`, `,`-separated, or pairs
    of exactly its length, `;`-separated, if it is a tuple; "" is ()."""
    if isinstance(default, tuple):
        if not text.strip():
            return ()
        item = default[0]
        if not isinstance(item, tuple):
            return tuple(_parse_like(item, token, path) for token in text.split(","))
        rows = [chunk.split(",") for chunk in text.split(";")]
        if any(len(row) != len(item) for row in rows):
            raise ValueError(f"each item needs {len(item)} values")
        return tuple(tuple(map(_parse_like, item, row, [path] * len(item))) for row in rows)
    if isinstance(default, bool):
        word = _BOOLS.get(text.strip().lower())
        if word is None:
            raise ConfigurationError(f"{path}: expected a boolean, got {text!r}")
        return word
    return type(default)(text.strip())


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        sep = "; " if value and isinstance(value[0], tuple) else ", "
        return sep.join(map(_format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a sectioned key=value scenario document.

    Unspecified keys take the defaults; unknown sections or keys and any
    validation failure raise ConfigurationError with the key path.
    """
    # No section header is empty, so `[DEFAULT]` is an unknown section here,
    # not defaults spread over every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed scenario file: {exc}") from exc

    sections: Dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigurationError(f"[{section}]: unknown section")
        cls = _SECTION_TYPES[section]
        defaults, known = cls(), {f.name for f in dataclass_fields(cls)}
        overrides = {}
        for key, raw in parser.items(section):
            path = f"[{section}] {key}"
            if key not in known:
                raise ConfigurationError(f"{path}: unknown key")
            try:
                overrides[key] = _parse_like(getattr(defaults, key), raw, path)
            except ValueError as exc:
                raise ConfigurationError(f"{path}: cannot parse {raw!r} ({exc})") from exc
        sections[section] = replace(defaults, **overrides)

    cfg = ScenarioConfig(**sections)
    validate_scenario(cfg)
    return cfg


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Render a config back to scenario-file text (parse round-trips)."""
    lines: List[str] = []
    for section in _SECTION_TYPES:
        value = getattr(cfg, section)
        lines.append(f"[{section}]")
        for f in dataclass_fields(value):
            lines.append(f"{f.name} = {_format_value(getattr(value, f.name))}")
        lines.append("")
    return "\n".join(lines)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def validate_scenario(cfg: ScenarioConfig) -> None:
    """Every field's domain (`domains.DOMAINS`), then the cross-field rules."""
    for section in _SECTION_TYPES:
        check_domains(section, getattr(cfg, section))
    band, topo = cfg.band, cfg.topology
    if len(band.coordinated) != band.num_groups:
        raise ConfigurationError(
            f"[band] coordinated: {len(band.coordinated)} flags for "
            f"{band.num_groups} groups"
        )
    # The coordinated split must be feasible; reuse the real constructors.
    plan = build_band_plan(
        band.total_rbs, band.num_groups, band.coordinated, band.rb_bandwidth_hz
    )
    initial_allocation(plan, cfg.cdss)

    if len(topo.beam_centers_m) != len(topo.beam_groups):
        raise ConfigurationError(
            "[topology] beam_groups: one group index per beam center required"
        )
    for i, gi in enumerate(topo.beam_groups):
        if not (0 <= gi < band.num_groups):
            raise ConfigurationError(
                f"[topology] beam_groups: beam {i} references group {gi}, "
                f"valid range is 0..{band.num_groups - 1}"
            )
    radio = cfg.radio
    if radio.se_min_bps_hz > radio.se_cap_bps_hz:
        raise ConfigurationError(
            f"[radio] se_min_bps_hz: must be in [0, se_cap_bps_hz = {radio.se_cap_bps_hz!r}], "
            f"got {radio.se_min_bps_hz!r}")
    epochs = SimClock.from_config(cfg).total_epochs
    cells, beams = topo.num_sites * topo.sectors_per_site, len(topo.beam_centers_m)
    n_tx, n_ues = cells + beams, cells * topo.ues_per_tn_cell + beams * topo.ues_per_beam
    band_size = band.total_rbs * band.num_groups
    per_epoch = n_tx * band_size + n_ues * (n_tx + band.num_groups)
    if per_epoch > MAX_RUN_WORK:        # too large for even one epoch: name the largest factor
        too_large = (f"[band] total_rbs: {band.total_rbs} RBs in {band.num_groups} groups"
                     if band_size >= max(n_tx, n_ues)
                     else f"[topology] size: {n_tx} transmitters and {n_ues} UEs")
        raise ConfigurationError(
            f"{too_large} make one epoch {per_epoch} work units, over MAX_RUN_WORK "
            f"= {MAX_RUN_WORK}")
    if epochs * per_epoch > MAX_RUN_WORK:
        raise ConfigurationError(
            f"[sim] total_s: {epochs} epochs x {per_epoch} work units exceed MAX_RUN_WORK "
            f"= {MAX_RUN_WORK}; shorten the run or shrink the band or the topology")


class SimClock(NamedTuple):
    """Epoch bookkeeping: integer epoch counts avoid float-drift boundaries."""

    epoch_s: float
    warmup_epochs: int
    total_epochs: int
    period_epochs: int

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "SimClock":
        """The run's epoch counts, for a config whose fields lie in their
        domains; `validate_scenario` derives them here too, so `validate` and
        `run` reject the same configs."""
        sim = cfg.sim
        period = _whole_epochs("[cdss] period_s", cfg.cdss.period_s, sim.epoch_ms, 1)
        total = _whole_epochs("[sim] total_s", sim.total_s, sim.epoch_ms, 1)
        warmup = _whole_epochs("[sim] warmup_s", sim.warmup_s, sim.epoch_ms, 0)
        if warmup >= total:
            raise ConfigurationError(
                f"[sim] warmup_s {sim.warmup_s} must be shorter than total_s {sim.total_s}"
            )
        return cls(sim.epoch_ms / 1e3, warmup, total, period)


def _whole_epochs(path: str, seconds: float, epoch_ms: float, minimum: int) -> int:
    epoch_s = epoch_ms / 1e3
    count = seconds / epoch_s           # inf once seconds is near the float limit
    if math.isfinite(count) and seconds >= 0:
        n = round(count)
        if n >= minimum and math.isclose(n * epoch_s, seconds, rel_tol=1e-9, abs_tol=1e-12):
            return n
    raise ConfigurationError(
        f"{path} {seconds} must be a whole number (at least {minimum}) of "
        f"{epoch_ms} ms epochs"
    )


# ---------------------------------------------------------------------------
# topology construction

class Topology(NamedTuple):
    """Concrete transmitters and UEs for one run."""

    cells: List[TnCell]
    beams: List[NtnBeam]   # empty when the case disables the NTN
    ues: List[Ue]


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-stream child seed; adding streams never shifts others."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def site_positions(topo: TopologyParams) -> List[Tuple[float, float]]:
    s = topo.isd_m
    candidates = [(0.0, 0.0), (s, 0.0), (s / 2.0, s * math.sqrt(3.0) / 2.0)]
    return candidates[: topo.num_sites]


# Flat-top hexagon with a vertex on the +x axis: its edge normals lie at
# 30/90/150 degrees, and its apothem is sqrt(3)/2 times the circumradius.
_HEX_NORMALS = tuple((math.cos(math.radians(a)), math.sin(math.radians(a)))
                     for a in (30.0, 90.0, 150.0))
_HALF_SQRT3 = math.sqrt(3.0) / 2.0


def _wrap_deg(a: float) -> float:
    return (a + 180.0) % 360.0 - 180.0


def _doubles(rng: np.random.Generator) -> Iterator[float]:
    """The generator's uniform doubles in [0, 1), drawn 256 at a time.

    Scalar `rng.uniform` calls take one double each from this same stream,
    so the n-th value here is the one the n-th scalar call would use.
    Every draw of the generator must come from one such iterator: a direct
    call after a block would skip the block's unused values.
    """
    while True:
        yield from rng.random(256).tolist()


def _span(lo: float, hi: float) -> float:
    """`hi - lo` under numpy's range check of `rng.uniform(lo, hi)`, which
    stops a placement loop that could never accept."""
    if not math.isfinite(hi - lo):
        raise OverflowError("high - low range exceeds valid bounds")
    return hi - lo


def _uniform(doubles: Iterator[float], lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` on the next double: numpy's formula."""
    return lo + _span(lo, hi) * next(doubles)


def _sample_in_sector(
    doubles: Iterator[float],
    site: Tuple[float, float],
    azimuth_deg: float,
    hex_radius_m: float,
    wedge_deg: float,
) -> Tuple[float, float]:
    """(dx, dy) pairs, each coordinate `_uniform(doubles, -R, R)`, until one
    lies in the site's hexagon, 1 m or more from the mast and inside the
    wedge; the range is checked once, and the hexagon test is inlined."""
    lo = -hex_radius_m
    span = _span(lo, hex_radius_m)
    apothem = _HALF_SQRT3 * hex_radius_m
    (c0, s0), (c1, s1), (c2, s2) = _HEX_NORMALS
    draw = doubles.__next__
    while True:
        dx = lo + span * draw()
        dy = lo + span * draw()
        if (abs(dx * c0 + dy * s0) > apothem or abs(dx * c1 + dy * s1) > apothem
                or abs(dx * c2 + dy * s2) > apothem):
            continue
        if math.hypot(dx, dy) < 1.0:  # avoid the singular point at the mast
            continue
        bearing = math.degrees(math.atan2(dy, dx))
        if abs(_wrap_deg(bearing - azimuth_deg)) <= wedge_deg / 2.0:
            return (site[0] + dx, site[1] + dy)


def _sample_in_disc(
    doubles: Iterator[float], center: Tuple[float, float], radius_m: float
) -> Tuple[float, float]:
    r = radius_m * math.sqrt(_uniform(doubles, 0.0, 1.0))
    theta = _uniform(doubles, 0.0, 2.0 * math.pi)
    return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def build_topology(cfg: ScenarioConfig, case: SimCase, seed: int) -> Topology:
    """Instantiate cells, beams, and seeded UE placement for one run, each
    list in id order; UEs are numbered 0..n-1.

    UE placement is identical across cases for a given seed: beam areas
    are populated even in TN-only cases, where those UEs must try their
    luck with the terrestrial sites."""
    topo = cfg.topology
    cells: List[TnCell] = []
    sector_step = 360.0 / topo.sectors_per_site
    for si, site in enumerate(site_positions(topo)):
        for k in range(topo.sectors_per_site):
            cells.append(
                TnCell(
                    cell_id=si * topo.sectors_per_site + k,
                    site_xy=site,
                    azimuth_deg=k * sector_step,
                )
            )

    beams: List[NtnBeam] = []
    if case.ntn_enabled:
        nominal_rbs = cfg.band.total_rbs / cfg.band.num_groups
        for bi, center in enumerate(topo.beam_centers_m):
            beams.append(
                NtnBeam(
                    beam_id=bi,
                    center_xy=center,
                    group_index=topo.beam_groups[bi],
                    nominal_rbs=nominal_rbs,
                )
            )

    doubles = _doubles(np.random.default_rng(derive_seed(seed, "ue-placement")))
    hex_radius = topo.isd_m / math.sqrt(3.0)
    wedge = 360.0 / topo.sectors_per_site
    ues: List[Ue] = []
    ue_id = 0
    for cell in cells:
        for _ in range(topo.ues_per_tn_cell):
            xy = _sample_in_sector(doubles, cell.site_xy, cell.azimuth_deg, hex_radius, wedge)
            ues.append(Ue(ue_id, xy, "tn"))
            ue_id += 1
    for bi, center in enumerate(topo.beam_centers_m):
        for _ in range(topo.ues_per_beam):
            xy = _sample_in_disc(doubles, center, cfg.radio.beam_3db_radius_km * 1e3)
            ues.append(Ue(ue_id, xy, "ntn"))
            ue_id += 1
    return Topology(cells, beams, ues)


def demand_bps(cfg: ScenarioConfig, case: SimCase, ue: Ue) -> float:
    """Per-UE CBR demand by placement area and case demand level."""
    t = cfg.traffic
    if case.high_demand:
        kbps = t.hd_tn_kbps if ue.kind == "tn" else t.hd_ntn_kbps
    else:
        kbps = t.ld_tn_kbps if ue.kind == "tn" else t.ld_ntn_kbps
    return kbps * 1e3
