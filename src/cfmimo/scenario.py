"""Scenario construction: geometry, radio constants, scheme selection, seeding.

Every randomized quantity in the simulator is drawn from a named stream so
that enabling one feature (e.g. shadowing) never perturbs the draws of
another (e.g. UE positions).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from numpy.random import SeedSequence, default_rng


@dataclass(frozen=True)
class SchemeSpec:
    granularity: str  # "joint" | "edu" | "oru"
    rule: str  # "mmse" | "mrc"
    dcc: bool  # uses the dynamic-cluster association instead of all-serve


SCHEMES: dict[str, SchemeSpec] = {
    "joint-mmse": SchemeSpec("joint", "mmse", False),
    "joint-mrc": SchemeSpec("joint", "mrc", False),
    "l-mmse": SchemeSpec("oru", "mmse", False),
    "p-mmse": SchemeSpec("joint", "mmse", True),
    "lp-mmse": SchemeSpec("oru", "mmse", True),
    "lp-mrc": SchemeSpec("oru", "mrc", True),
    "edu-mmse": SchemeSpec("edu", "mmse", False),
    "edu-pmmse": SchemeSpec("edu", "mmse", True),
}
VALID_SCHEMES = tuple(SCHEMES)

# Angular spreads the 40-node correlation quadrature resolves: inside these
# limits R is within 1e-12 of a 160-node rule (beta = 1, random links).
MAX_SPREAD_DEG = 40.0  # largest angular spread
MAX_ARRAY_SPREAD_DEG = 90.0  # largest (antennas_per_oru - 1) * spread

# Fixed stream ids: adding a stream must never renumber existing ones.
_STREAM_IDS = {
    "oru-positions": 0,
    "ue-positions": 1,
    "shadowing": 2,
    "small-scale": 3,
    "estimation-noise": 4,
    "ga": 5,
    "ql": 6,
    "clustering": 7,
    "phase-drift": 8,
}


class ConfigError(ValueError):
    """Raised when a scenario configuration cannot be used."""


def rng_stream(master_seed: int, drop_index: int, tag: str) -> np.random.Generator:
    """Independent, reproducible generator for one concern of one drop."""
    if tag not in _STREAM_IDS:
        raise KeyError(f"unknown rng stream tag {tag!r}")
    seq = SeedSequence(
        entropy=int(master_seed), spawn_key=(int(drop_index), _STREAM_IDS[tag])
    )
    return default_rng(seq)


@dataclass
class ScenarioConfig:
    """All simulation parameters. Defaults follow the dense urban setup.

    ``dl_pmax_mw`` is an assumption (no downlink budget is standard for this
    setup); it is applied as a per-O-RU radiated power cap.
    """

    area_side_m: float = 200.0
    num_oru: int = 100
    antennas_per_oru: int = 4
    num_ue: int = 24
    num_edu: int = 8
    carrier_hz: float = 2.0e9
    bandwidth_hz: float = 20.0e6
    noise_psd_dbm_hz: float = -174.0
    ul_power_mw: float = 200.0
    dl_pmax_mw: float = 200.0
    pathloss_model: str = "log-distance"  # or "power-law"
    pathloss_exponent: float = 3.67
    pathloss_intercept_db: float = -30.5
    shadow_sigma_db: float = 4.0
    asd_azimuth_deg: float = 15.0
    asd_elevation_deg: float = 15.0
    antenna_height_m: float = 10.0
    pilot_count: int = 24
    quantizer_bits: int | str = "infinite"
    fronthaul_ue_cap: int = 24
    mc_drops: int = 50
    mc_realizations: int = 100
    master_seed: int = 1
    schemes: tuple[str, ...] = ("joint-mmse", "joint-mrc", "l-mmse", "edu-mmse")

    def noise_power_mw(self) -> float:
        """Thermal noise power over the transmission bandwidth, in mW."""
        return 10.0 ** (self.noise_psd_dbm_hz / 10.0) * self.bandwidth_hz

    def to_dict(self) -> dict:
        """The fields as JSON values: numpy scalars become Python numbers."""
        d = {k: v.item() if isinstance(v, np.generic) else v for k, v in asdict(self).items()}
        d["schemes"] = list(self.schemes)
        return d


@dataclass
class Topology:
    """Geometric ground truth for one drop."""

    oru_positions: np.ndarray  # (L, 3), z = antenna height
    ue_positions: np.ndarray  # (K, 3), z = 0
    distance_matrix: np.ndarray  # (K, L), 3-D distances
    oru_pairwise: np.ndarray  # (L, L)
    placement: str = "grid"  # "grid" or "random" (fallback)
    edu_partition: np.ndarray | None = None  # (L,) EDU per O-RU, via with_partition

    @property
    def num_oru(self) -> int:
        return self.oru_positions.shape[0]

    def with_partition(self, genome: np.ndarray) -> "Topology":
        genome = np.asarray(genome, dtype=int)
        if genome.shape != (self.num_oru,):
            raise ValueError("partition genome length must equal the number of O-RUs")
        return replace(self, edu_partition=genome.copy())


def _grid_dims(L: int) -> tuple[int, int] | None:
    """Most-square (rows, cols) factorization of L, or None if only a
    degenerate 1-row strip exists for L >= 4."""
    best = None
    for r in range(1, int(math.isqrt(L)) + 1):
        if L % r == 0:
            best = (r, L // r)
    if best is None:
        return None
    if best[0] == 1 and L >= 4:
        return None
    return best


# What each field annotation admits, and how a message names it. A bool is
# an int to Python but not a count or a number here.
_FIELD_TYPES = {
    "int": ((int, np.integer), "an integer"),
    "float": ((int, float, np.integer, np.floating), "a real number"),
    "str": ((str,), "a string"),
}


def require_integers(**counts) -> None:
    """Raise ``ValueError`` naming the first of ``counts`` that is not an
    integer; a bool is an int to Python but not a count here."""
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def validate_config(config: ScenarioConfig) -> list[str]:
    """Return every violated invariant as a message; empty list means ok.

    Fields of the wrong type are reported without the range checks, which
    need the declared types.
    """
    errors: list[str] = []
    c = config
    mistyped = False
    for f in fields(c):
        value = getattr(c, f.name)
        if f.type in _FIELD_TYPES:
            types, kind = _FIELD_TYPES[f.type]
            ok = isinstance(value, types) and not isinstance(value, bool)
        elif f.name == "schemes":
            kind = "a list of scheme tags"
            ok = isinstance(value, (tuple, list)) and all(isinstance(s, str) for s in value)
        else:  # quantizer_bits
            kind = 'an integer or "infinite"'
            ok = value == "infinite" or (
                isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            )
        if not ok:
            errors.append(f"{f.name} must be {kind}, got {value!r}")
            mistyped = True
        # the spread check below reports non-finite spreads itself
        elif (
            f.type == "float"
            and f.name not in ("asd_azimuth_deg", "asd_elevation_deg")
            and not math.isfinite(value)
        ):
            errors.append(f"{f.name} must be finite, got {value}")
    if mistyped:
        return errors
    if c.num_oru < 1:
        errors.append("num_oru must be >= 1")
    if c.num_edu < 1:
        errors.append("num_edu must be >= 1")
    if c.num_oru < c.num_edu:
        errors.append("num_oru must be >= num_edu")
    if c.num_ue < 1:
        errors.append("num_ue must be >= 1")
    if c.num_ue > c.pilot_count:
        errors.append(
            f"pilot shortage: num_ue={c.num_ue} exceeds pilot_count={c.pilot_count}"
        )
    if c.antennas_per_oru < 1:
        errors.append("antennas_per_oru must be >= 1")
    spread = float(np.max(np.abs([c.asd_azimuth_deg, c.asd_elevation_deg])))  # NaN wins
    if not (
        spread <= MAX_SPREAD_DEG
        and (c.antennas_per_oru - 1) * spread <= MAX_ARRAY_SPREAD_DEG
    ):
        errors.append(
            f"angular spread {spread:g} deg with antennas_per_oru="
            f"{c.antennas_per_oru} is not resolved by the correlation quadrature: "
            f"it needs max(asd) <= {MAX_SPREAD_DEG:g} deg and "
            f"(antennas_per_oru - 1) * max(asd) <= {MAX_ARRAY_SPREAD_DEG:g} deg"
        )
    for name in ("ul_power_mw", "dl_pmax_mw", "bandwidth_hz", "carrier_hz", "area_side_m"):
        if getattr(c, name) <= 0:
            errors.append(f"{name} must be > 0")
    if c.shadow_sigma_db < 0:
        errors.append("shadow_sigma_db must be >= 0")
    if c.antenna_height_m <= 0:
        errors.append("antenna_height_m must be > 0")
    if c.pathloss_model not in ("log-distance", "power-law"):
        errors.append(f"unknown pathloss_model {c.pathloss_model!r}")
    if c.mc_drops < 1:
        errors.append("mc_drops must be >= 1")
    if c.mc_realizations < 2:  # the link moments need a sample variance
        errors.append("mc_realizations must be >= 2")
    if c.fronthaul_ue_cap < 0:
        errors.append("fronthaul_ue_cap must be >= 0")
    if c.master_seed < 0:
        errors.append("master_seed must be >= 0")
    if c.quantizer_bits != "infinite" and c.quantizer_bits < 1:
        errors.append('quantizer_bits must be an integer >= 1 or "infinite"')
    bad = [s for s in c.schemes if s not in VALID_SCHEMES]
    if bad:
        errors.append(
            f"unknown schemes {bad}; valid tags: {', '.join(VALID_SCHEMES)}"
        )
    if len(set(c.schemes)) < len(c.schemes):
        errors.append(f"repeated scheme tags in {list(c.schemes)}; name each once")
    if not c.schemes:
        errors.append("schemes must not be empty")
    return errors


def build_topology(config: ScenarioConfig, drop_index: int) -> Topology:
    """Place O-RUs and UEs and derive the distance matrices.

    O-RUs sit on a centered regular grid (cell centers of the most-square
    subdivision of the area); if no 2-D grid exists for L, placement falls
    back to uniform random and is flagged. O-RU placement does not depend on
    drop_index: the infrastructure is fixed, only UEs are re-dropped. The
    O-RU to EDU partition is a campaign property (``resolve_partition``)
    that ``run_drop`` takes as a genome.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError("; ".join(errors))

    L, K = config.num_oru, config.num_ue
    side = config.area_side_m
    height = config.antenna_height_m

    dims = _grid_dims(L)
    if dims is not None:
        rows, cols = dims
        xs = (np.arange(cols) + 0.5) * side / cols
        ys = (np.arange(rows) + 0.5) * side / rows
        gx, gy = np.meshgrid(xs, ys)
        oru = np.column_stack([gx.ravel(), gy.ravel(), np.full(L, height)])
        placement = "grid"
    else:
        rng = rng_stream(config.master_seed, 0, "oru-positions")
        xy = rng.uniform(0.0, side, size=(L, 2))
        oru = np.column_stack([xy, np.full(L, height)])
        placement = "random"

    rng_ue = rng_stream(config.master_seed, drop_index, "ue-positions")
    ue_xy = rng_ue.uniform(0.0, side, size=(K, 2))
    ue = np.column_stack([ue_xy, np.zeros(K)])

    diff = ue[:, None, :] - oru[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    odiff = oru[:, None, :] - oru[None, :, :]
    opair = np.linalg.norm(odiff, axis=-1)

    return Topology(
        oru_positions=oru,
        ue_positions=ue,
        distance_matrix=dist,
        oru_pairwise=opair,
        placement=placement,
    )


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Load a JSON config file using the exact ScenarioConfig field names;
    ``overrides`` replace its fields before the one validation."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a config file must hold a JSON object")
    return config_from_dict({**raw, **overrides})


def config_from_dict(raw: dict) -> ScenarioConfig:
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if isinstance(raw.get("schemes"), list):  # anything else fails validation
        raw = {**raw, "schemes": tuple(raw["schemes"])}
    cfg = ScenarioConfig(**raw)
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def save_config(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")
