"""Units, physical constants and conversion helpers.

The paper mixes units freely (GHz clocks, GB/s memory bandwidth, MB payloads,
Mbps throughput, metres, Hz, frames per second).  To keep every model in the
framework consistent we fix the internal conventions here:

* **time** is carried in **milliseconds** (latency figures in the paper are in
  ms),
* **energy** is carried in **millijoules** (energy figures are in mJ),
* **power** is carried in **watts** (so ``energy_mJ = power_W * latency_ms``),
* **data sizes** are megabytes, **memory bandwidth** is GB/s, **throughput**
  is Mbps, **distances** are metres, **clock frequencies** are GHz.

Only this module knows the numeric conversion factors; every other module
converts through the helpers below so the factors never get duplicated.
"""

from __future__ import annotations

from repro.core.numeric import ArrayLike, any_true

# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

#: Speed of light in vacuum (m/s) — used as the default propagation speed for
#: the wireless medium, matching the paper's ``c`` in Eqs. (6), (16), (18), (23).
SPEED_OF_LIGHT_M_PER_S: float = 299_792_458.0

#: Bytes occupied by one pixel of a YUV420 frame (12 bits/pixel).
YUV420_BYTES_PER_PIXEL: float = 1.5

#: Bytes occupied by one pixel of an RGB888 frame.
RGB_BYTES_PER_PIXEL: float = 3.0

#: Sampling period of the Monsoon power monitor used in the paper (0.2 ms).
POWER_MONITOR_SAMPLING_PERIOD_MS: float = 0.2

# ---------------------------------------------------------------------------
# Time conversions
# ---------------------------------------------------------------------------


def seconds_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1e3


def ms_to_seconds(milliseconds: float) -> float:
    """Convert milliseconds to seconds."""
    return milliseconds * 1e-3


def hz_to_period_ms(frequency_hz: float) -> float:
    """Return the period in milliseconds of an event repeating at ``frequency_hz``.

    Used for frame-rate (``1/n_fps`` in Eq. 2) and sensor information
    generation frequency (``1/f_t`` in Eq. 6).

    Raises:
        ValueError: if ``frequency_hz`` is not strictly positive.
    """
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {frequency_hz}")
    return 1e3 / frequency_hz


def period_ms_to_hz(period_ms: float) -> float:
    """Return the frequency in Hz of an event with period ``period_ms``."""
    if period_ms <= 0.0:
        raise ValueError(f"period must be > 0 ms, got {period_ms}")
    return 1e3 / period_ms


# ---------------------------------------------------------------------------
# Data-size conversions
# ---------------------------------------------------------------------------


def bytes_to_mb(n_bytes: float) -> float:
    """Convert bytes to megabytes (10^6 bytes, consistent with MB/GB/s usage)."""
    return n_bytes / 1e6


def mb_to_bytes(megabytes: float) -> float:
    """Convert megabytes to bytes."""
    return megabytes * 1e6


def mb_to_megabits(megabytes: float) -> float:
    """Convert megabytes to megabits (for throughput calculations)."""
    return megabytes * 8.0


def frame_pixels(frame_side_px: ArrayLike) -> ArrayLike:
    """Number of pixels of a square frame whose side is ``frame_side_px``.

    The paper's sweeps express "frame size (pixel^2)" as a scalar in the
    300–700 range; we interpret that scalar as the side length of a square
    frame, so the pixel count is its square.  Takes a float or an array of
    sides (any side <= 0 raises).
    """
    if any_true(frame_side_px <= 0.0):
        raise ValueError(f"frame side must be > 0 px, got {frame_side_px}")
    return frame_side_px * frame_side_px


def yuv_frame_size_mb(frame_side_px: ArrayLike) -> ArrayLike:
    """Data size ``delta_f`` (MB) of raw YUV420 square frames of side ``frame_side_px``."""
    return bytes_to_mb(frame_pixels(frame_side_px) * YUV420_BYTES_PER_PIXEL)


def rgb_frame_size_mb(frame_side_px: float) -> float:
    """Data size (MB) of an RGB square frame of side ``frame_side_px``."""
    return bytes_to_mb(frame_pixels(frame_side_px) * RGB_BYTES_PER_PIXEL)


# ---------------------------------------------------------------------------
# Latency primitives
# ---------------------------------------------------------------------------


def transmission_latency_ms(data_size_mb: float, throughput_mbps: float) -> float:
    """Latency (ms) of transmitting ``data_size_mb`` at ``throughput_mbps``.

    This is the ``delta / r_w`` term of Eqs. (16) and (18).
    """
    if throughput_mbps <= 0.0:
        raise ValueError(f"throughput must be > 0 Mbps, got {throughput_mbps}")
    if data_size_mb < 0.0:
        raise ValueError(f"data size must be >= 0 MB, got {data_size_mb}")
    return seconds_to_ms(mb_to_megabits(data_size_mb) / throughput_mbps)


def propagation_delay_ms(distance_m: float, speed_m_per_s: float = SPEED_OF_LIGHT_M_PER_S) -> float:
    """Propagation delay (ms) over ``distance_m`` at ``speed_m_per_s``.

    This is the ``d / c`` term of Eqs. (6), (16), (18) and (23).
    """
    if distance_m < 0.0:
        raise ValueError(f"distance must be >= 0 m, got {distance_m}")
    if speed_m_per_s <= 0.0:
        raise ValueError(f"propagation speed must be > 0 m/s, got {speed_m_per_s}")
    return seconds_to_ms(distance_m / speed_m_per_s)


# ---------------------------------------------------------------------------
# Energy primitives
# ---------------------------------------------------------------------------


def energy_mj(power_w: float, latency_ms: float) -> float:
    """Energy (mJ) consumed by drawing ``power_w`` for ``latency_ms``.

    ``W * ms == mJ`` exactly, which is why the framework carries power in
    watts and time in milliseconds.
    """
    if latency_ms < 0.0:
        raise ValueError(f"latency must be >= 0 ms, got {latency_ms}")
    return power_w * latency_ms


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)
