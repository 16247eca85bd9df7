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
from typing import Dict, Iterator, List, Tuple

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


@dataclass(frozen=True)
class SimCase:
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
MAX_RUN_WORK = 10**9


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


# ---------------------------------------------------------------------------
# parsing / serialization

_SECTION_TYPES = {
    "band": BandParams,
    "cdss": CdssConfig,
    "radio": RadioParams,
    "topology": TopologyParams,
    "traffic": TrafficParams,
    "sim": SimParams,
}


def _parse_bool(text: str, path: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"{path}: expected a boolean, got {text!r}")


def _parse_value(field_type: str, text: str, path: str):
    try:
        if field_type == "int":
            return int(text.strip())
        if field_type == "float":
            return float(text.strip())
        if field_type == "bool":
            return _parse_bool(text, path)
        if field_type == "Tuple[bool, ...]":
            return tuple(_parse_bool(tok, path) for tok in text.split(","))
        if field_type == "Tuple[int, ...]":
            return tuple(int(tok.strip()) for tok in text.split(","))
        if field_type == "Tuple[Tuple[float, float], ...]":
            pairs = []
            for chunk in text.split(";"):
                x, y = chunk.split(",")
                pairs.append((float(x.strip()), float(y.strip())))
            return tuple(pairs)
    except ConfigurationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{path}: cannot parse {text!r} ({exc})") from exc
    raise ConfigurationError(f"{path}: unsupported field type {field_type}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(f"{x!r}, {y!r}" for x, y in value)
        if value and isinstance(value[0], bool):
            return ", ".join("true" if v else "false" for v in value)
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a sectioned key=value scenario document.

    Unspecified keys take the defaults; unknown sections or keys and any
    validation failure raise ConfigurationError with the key path.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed scenario file: {exc}") from exc

    sections: Dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigurationError(f"[{section}]: unknown section")
        cls = _SECTION_TYPES[section]
        known = {f.name: f for f in dataclass_fields(cls)}
        overrides = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigurationError(f"[{section}] {key}: unknown key")
            ftype = known[key].type
            overrides[key] = _parse_value(ftype, raw, f"[{section}] {key}")
        sections[section] = replace(cls(), **overrides)

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


@dataclass(frozen=True)
class SimClock:
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

@dataclass
class Topology:
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


def _in_hexagon(dx: float, dy: float, apothem: float) -> bool:
    for cos_a, sin_a in _HEX_NORMALS:
        if abs(dx * cos_a + dy * sin_a) > apothem:
            return False
    return True


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


def _uniform(doubles: Iterator[float], lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` on the next double: numpy's formula and its
    range check, which stops a placement loop that could never accept."""
    span = hi - lo
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    return lo + span * next(doubles)


def _sample_in_sector(
    doubles: Iterator[float],
    site: Tuple[float, float],
    azimuth_deg: float,
    hex_radius_m: float,
    wedge_deg: float,
) -> Tuple[float, float]:
    apothem = _HALF_SQRT3 * hex_radius_m
    while True:
        dx = _uniform(doubles, -hex_radius_m, hex_radius_m)
        dy = _uniform(doubles, -hex_radius_m, hex_radius_m)
        if not _in_hexagon(dx, dy, apothem):
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
    """Instantiate cells, beams, and seeded UE placement for one run.

    UE placement is identical across cases for a given seed: beam areas
    are populated even in TN-only cases, where those UEs must try their
    luck with the terrestrial sites.  UEs are numbered 0..n-1.
    """
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
