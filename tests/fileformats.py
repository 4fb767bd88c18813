"""Writers and filters for the command line's file formats that only the
tests need: an IMU log writer, the inverse of cli.read_imu_log, and the
benchmark CSV minus its wall-clock column."""

import numpy as np

from manifold_ukf.cli import IMU_LOG_HEADER, _fmt, _write_text


def write_imu_log(path, times, inputs, measurements) -> None:
    """measurements maps 1-based step index to a 3-vector position fix."""
    lines = [IMU_LOG_HEADER]
    for step, (t, u) in enumerate(zip(times, inputs), start=1):
        y = measurements.get(step)
        valid = 1 if y is not None else 0
        y = y if y is not None else np.zeros(3)
        cells = [_fmt(t)] + [_fmt(v) for v in u] + [_fmt(v) for v in y] + [str(valid)]
        lines.append(",".join(cells))
    _write_text(path, lines)


def strip_runtime_column(text: str) -> str:
    """Benchmark CSV minus its wall-clock column, for byte comparisons."""
    out = []
    drop = None
    for line in text.splitlines():
        cells = line.split(",")
        if drop is None:
            drop = cells.index("wall_clock_s")
        out.append(",".join(cells[:drop] + cells[drop + 1:]))
    return "\n".join(out) + "\n"
