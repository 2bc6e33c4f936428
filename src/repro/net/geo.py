"""Geography for the latency model.

The simulator places every host at a :class:`GeoPoint`.  Round-trip times are
derived from great-circle distance (see :mod:`repro.net.latency`), which is
what lets the measurement suite's ping-based co-location inference (paper
Section 6.4.2, Figure 9) work exactly as it does against the real internet.

Coordinates are approximate city centroids — fidelity to a few tens of km is
irrelevant at RTT granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GeoPoint:
    """A point on the globe with an associated ISO country code."""

    lat: float
    lon: float
    country: str  # ISO 3166-1 alpha-2
    city: str = ""

    def __post_init__(self) -> None:
        # Same tuple the generated dataclass hash uses, computed eagerly:
        # `Internet._router_cache` keys by points, once per traceroute hop.
        # (The latency model keys its legs by `id()` and hashes none.)
        object.__setattr__(
            self, "_hash", hash((self.lat, self.lon, self.country, self.city))
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # Unpickled instances skip __post_init__; recompute lazily.
            h = hash((self.lat, self.lon, self.country, self.city))
            object.__setattr__(self, "_hash", h)
            return h

    # String hashing is salted per-process: never pickle the cached hash.
    def __getstate__(self) -> dict:
        return {
            "lat": self.lat,
            "lon": self.lon,
            "country": self.country,
            "city": self.city,
        }

    def distance_km(self, other: "GeoPoint") -> float:
        return great_circle_km(self.lat, self.lon, other.lat, other.lon)


EARTH_RADIUS_KM = 6371.0


def great_circle_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance (haversine) between two lat/lon points, in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


# City name -> (lat, lon, ISO country). The set covers every location the
# provider catalogue, RIPE-anchor fleet, and censorship study need.
_CITY_TABLE: dict[str, tuple[float, float, str]] = {
    # North America
    "New York": (40.71, -74.01, "US"),
    "Los Angeles": (34.05, -118.24, "US"),
    "Chicago": (41.88, -87.63, "US"),
    "Miami": (25.76, -80.19, "US"),
    "Seattle": (47.61, -122.33, "US"),
    "Dallas": (32.78, -96.80, "US"),
    "Atlanta": (33.75, -84.39, "US"),
    "Denver": (39.74, -104.99, "US"),
    "San Jose": (37.34, -121.89, "US"),
    "Ashburn": (39.04, -77.49, "US"),
    "Phoenix": (33.45, -112.07, "US"),
    "Toronto": (43.65, -79.38, "CA"),
    "Montreal": (45.50, -73.57, "CA"),
    "Vancouver": (49.28, -123.12, "CA"),
    "Mexico City": (19.43, -99.13, "MX"),
    "Guadalajara": (20.66, -103.35, "MX"),
    "Panama City": (8.98, -79.52, "PA"),
    "San Jose CR": (9.93, -84.08, "CR"),
    "Belize City": (17.50, -88.20, "BZ"),
    "Nassau": (25.04, -77.35, "BS"),
    "Kingston": (17.97, -76.79, "JM"),
    "Havana": (23.11, -82.37, "CU"),
    # South America
    "Sao Paulo": (-23.55, -46.63, "BR"),
    "Rio de Janeiro": (-22.91, -43.17, "BR"),
    "Buenos Aires": (-34.60, -58.38, "AR"),
    "Santiago": (-33.45, -70.67, "CL"),
    "Lima": (-12.05, -77.04, "PE"),
    "Bogota": (4.71, -74.07, "CO"),
    "Caracas": (10.48, -66.90, "VE"),
    "Quito": (-0.18, -78.47, "EC"),
    "Montevideo": (-34.90, -56.19, "UY"),
    # Europe
    "London": (51.51, -0.13, "GB"),
    "Manchester": (53.48, -2.24, "GB"),
    "Paris": (48.86, 2.35, "FR"),
    "Marseille": (43.30, 5.37, "FR"),
    "Frankfurt": (50.11, 8.68, "DE"),
    "Berlin": (52.52, 13.41, "DE"),
    "Munich": (48.14, 11.58, "DE"),
    "Amsterdam": (52.37, 4.90, "NL"),
    "Rotterdam": (51.92, 4.48, "NL"),
    "Brussels": (50.85, 4.35, "BE"),
    "Luxembourg": (49.61, 6.13, "LU"),
    "Zurich": (47.38, 8.54, "CH"),
    "Geneva": (46.20, 6.14, "CH"),
    "Vienna": (48.21, 16.37, "AT"),
    "Prague": (50.08, 14.44, "CZ"),
    "Warsaw": (52.23, 21.01, "PL"),
    "Budapest": (47.50, 19.04, "HU"),
    "Bucharest": (44.43, 26.10, "RO"),
    "Sofia": (42.70, 23.32, "BG"),
    "Athens": (37.98, 23.73, "GR"),
    "Rome": (41.90, 12.50, "IT"),
    "Milan": (45.46, 9.19, "IT"),
    "Madrid": (40.42, -3.70, "ES"),
    "Barcelona": (41.39, 2.17, "ES"),
    "Lisbon": (38.72, -9.14, "PT"),
    "Dublin": (53.35, -6.26, "IE"),
    "Edinburgh": (55.95, -3.19, "GB"),
    "Stockholm": (59.33, 18.07, "SE"),
    "Gothenburg": (57.71, 11.97, "SE"),
    "Oslo": (59.91, 10.75, "NO"),
    "Copenhagen": (55.68, 12.57, "DK"),
    "Helsinki": (60.17, 24.94, "FI"),
    "Tallinn": (59.44, 24.75, "EE"),
    "Riga": (56.95, 24.11, "LV"),
    "Vilnius": (54.69, 25.28, "LT"),
    "Kyiv": (50.45, 30.52, "UA"),
    "Moscow": (55.76, 37.62, "RU"),
    "Saint Petersburg": (59.93, 30.34, "RU"),
    "Novosibirsk": (55.03, 82.92, "RU"),
    "Minsk": (53.90, 27.57, "BY"),
    "Istanbul": (41.01, 28.98, "TR"),
    "Ankara": (39.93, 32.86, "TR"),
    "Belgrade": (44.79, 20.45, "RS"),
    "Zagreb": (45.81, 15.98, "HR"),
    "Ljubljana": (46.06, 14.51, "SI"),
    "Bratislava": (48.15, 17.11, "SK"),
    "Chisinau": (47.01, 28.86, "MD"),
    "Reykjavik": (64.15, -21.94, "IS"),
    "Valletta": (35.90, 14.51, "MT"),
    "Nicosia": (35.19, 33.38, "CY"),
    "Tirana": (41.33, 19.82, "AL"),
    # Middle East & Africa
    "Tel Aviv": (32.08, 34.78, "IL"),
    "Dubai": (25.20, 55.27, "AE"),
    "Riyadh": (24.71, 46.68, "SA"),
    "Doha": (25.29, 51.53, "QA"),
    "Kuwait City": (29.38, 47.99, "KW"),
    "Tehran": (35.69, 51.39, "IR"),
    "Baghdad": (33.31, 44.37, "IQ"),
    "Amman": (31.95, 35.93, "JO"),
    "Beirut": (33.89, 35.50, "LB"),
    "Cairo": (30.04, 31.24, "EG"),
    "Casablanca": (33.57, -7.59, "MA"),
    "Tunis": (36.81, 10.18, "TN"),
    "Lagos": (6.52, 3.38, "NG"),
    "Nairobi": (-1.29, 36.82, "KE"),
    "Johannesburg": (-26.20, 28.05, "ZA"),
    "Cape Town": (-33.92, 18.42, "ZA"),
    "Victoria": (-4.62, 55.45, "SC"),
    "Port Louis": (-20.16, 57.50, "MU"),
    # Asia
    "Tokyo": (35.68, 139.69, "JP"),
    "Osaka": (34.69, 135.50, "JP"),
    "Seoul": (37.57, 126.98, "KR"),
    "Busan": (35.18, 129.08, "KR"),
    "Pyongyang": (39.04, 125.76, "KP"),
    "Beijing": (39.90, 116.41, "CN"),
    "Shanghai": (31.23, 121.47, "CN"),
    "Shenzhen": (22.54, 114.06, "CN"),
    "Hong Kong": (22.32, 114.17, "HK"),
    "Taipei": (25.03, 121.57, "TW"),
    "Singapore": (1.35, 103.82, "SG"),
    "Kuala Lumpur": (3.14, 101.69, "MY"),
    "Bangkok": (13.76, 100.50, "TH"),
    "Hanoi": (21.03, 105.85, "VN"),
    "Ho Chi Minh City": (10.82, 106.63, "VN"),
    "Manila": (14.60, 120.98, "PH"),
    "Jakarta": (-6.21, 106.85, "ID"),
    "Mumbai": (19.08, 72.88, "IN"),
    "Bangalore": (12.97, 77.59, "IN"),
    "New Delhi": (28.61, 77.21, "IN"),
    "Chennai": (13.08, 80.27, "IN"),
    "Karachi": (24.86, 67.01, "PK"),
    "Dhaka": (23.81, 90.41, "BD"),
    "Colombo": (6.93, 79.85, "LK"),
    "Kathmandu": (27.72, 85.32, "NP"),
    "Almaty": (43.24, 76.95, "KZ"),
    "Tashkent": (41.30, 69.24, "UZ"),
    "Baku": (40.41, 49.87, "AZ"),
    "Tbilisi": (41.72, 44.78, "GE"),
    "Yerevan": (40.18, 44.51, "AM"),
    "Ulaanbaatar": (47.89, 106.91, "MN"),
    # Oceania
    "Sydney": (-33.87, 151.21, "AU"),
    "Melbourne": (-37.81, 144.96, "AU"),
    "Perth": (-31.95, 115.86, "AU"),
    "Auckland": (-36.85, 174.76, "NZ"),
    "Wellington": (-41.29, 174.78, "NZ"),
    "Suva": (-18.12, 178.45, "FJ"),
}

CITY_COORDINATES: dict[str, GeoPoint] = {
    name: GeoPoint(lat=lat, lon=lon, country=cc, city=name)
    for name, (lat, lon, cc) in _CITY_TABLE.items()
}

# A representative (usually capital / biggest-hub) city per country code, used
# when only a country is known. Derived from the city table; the first city
# listed for each country above wins, with a few explicit overrides.
_COUNTRY_DEFAULT_CITY: dict[str, str] = {}
for _name, (_lat, _lon, _cc) in _CITY_TABLE.items():
    _COUNTRY_DEFAULT_CITY.setdefault(_cc, _name)
_COUNTRY_DEFAULT_CITY.update(
    {
        "US": "Ashburn",  # the default hosting location, not NYC
        "DE": "Frankfurt",
        "RU": "Moscow",
        "GB": "London",
    }
)


def city_location(city: str) -> GeoPoint:
    """Look up a city's :class:`GeoPoint`; raises ``KeyError`` if unknown."""
    return CITY_COORDINATES[city]


def country_centroid(country: str) -> GeoPoint:
    """A representative location for a country code.

    Falls back to a deterministic pseudo-location for country codes not in
    the table so that synthetic providers can claim arbitrary countries
    (HideMyAss claims 190+) without the simulator breaking.
    """
    city = _COUNTRY_DEFAULT_CITY.get(country)
    if city is not None:
        return CITY_COORDINATES[city]
    # Deterministic fallback: hash the code onto the globe. These points are
    # only used for 'claimed' locations that no physical server occupies.
    seed = sum(ord(c) * (i + 1) for i, c in enumerate(country))
    lat = ((seed * 37) % 120) - 60.0
    lon = ((seed * 73) % 360) - 180.0
    return GeoPoint(lat=lat, lon=lon, country=country, city="")


def known_countries() -> list[str]:
    """All country codes with at least one real city in the table."""
    return sorted({cc for (_, _, cc) in _CITY_TABLE.values()})


def cities_in_country(country: str) -> list[str]:
    """All table cities located in *country*, sorted by name."""
    return sorted(
        name for name, (_, _, cc) in _CITY_TABLE.items() if cc == country
    )
