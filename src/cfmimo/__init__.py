"""System-level Monte Carlo simulator for cell-free massive MIMO with
EDU-partitioned fronthaul processing."""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    ScenarioConfig,
    Topology,
    ConfigError,
    VALID_SCHEMES,
    build_topology,
    load_config,
    rng_stream,
)
from .channel import (  # noqa: F401
    ChannelStatistics,
    build_statistics,
    pathloss_db,
    sample_shadowing,
    sample_channel,
    phase_drift,
)
from .transceiver import (  # noqa: F401
    SCHEMES,
    Association,
    SinrReport,
    uplink_sinr,
    downlink_report,
    downlink_sinr,
    quantize,
    se_from_sinr,
)
from .deployment import (  # noqa: F401
    GaConfig,
    Partition,
    fitness,
    ga_optimize,
    clustered_baseline,
)
from .association import (  # noqa: F401
    QlConfig,
    EduSinrTable,
    epsilon_schedule,
    q_update,
    reward,
    ql_associate,
)
from .power import uplink_power, downlink_power  # noqa: F401
from .harness import (  # noqa: F401
    DropOptions,
    DropResult,
    CampaignResult,
    run_drop,
    run_campaign,
    resolve_partition,
)
