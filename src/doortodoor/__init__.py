"""Door-to-door multimodal travel time analytics engine."""

from .errors import (
    DoorToDoorError,
    FitUndefinedError,
    SensitivityUndefinedError,
    ValidationError,
)
from .model import (
    DayPeriod,
    DwellProfile,
    ScheduledSegment,
    Station,
    TripRecord,
    Zone,
    ZoneRideStat,
    classify_period,
    geodesic_distance,
)
from .ingestion import (
    RideStatIndex,
    ZoneCollection,
    expand_weekly_schedule,
    load_ride_stats,
    load_segments_actuals,
    load_stations,
    load_zones,
    resolve_dwell,
)
from .aggregation import (
    ZonePeriodSummary,
    bin_zone_counts,
    daily_zone_means,
    evaluate_trips,
    summarize,
)
from .analytics import (
    DelaySensitivity,
    IntegrationFit,
    LegShare,
    ZoneDelta,
    airport_integration,
    delay_sensitivity,
    leg_shares,
    weather_diff,
)

__version__ = "0.1.0"
