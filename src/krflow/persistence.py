"""File formats for runs: monitor CSV, field snapshots, summary text.

Every float an artifact holds (CSV cells, summary values, and the lines
`krflow fit` prints) is formatted here, with 17 significant digits, which
is exactly enough to reproduce an IEEE double bit-for-bit on re-parse; so
monitor series round-trip through CSV losslessly.

Snapshots use a fixed little-endian binary layout:

    bytes 0..3   magic "KRFL"
    u32          format version (currently 1)
    u32 x 4      m, n, N_b, N_f   (complex dimensions and grid sizes)
    f64          t
    f64 x N      potential values, base-major (C order of the 4D array)

so a snapshot written by any conforming implementation reads back
bit-identically.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import MonitorRecord
from .errors import SnapshotCorrupt

SNAPSHOT_MAGIC = b"KRFL"
SNAPSHOT_VERSION = 1


def _cell(value):
    """A value as every artifact writes it: a float with 17 significant
    digits, anything else as it is."""
    return f"{value:.17g}" if isinstance(value, float) else value


def write_csv(path, header, rows) -> None:
    """CSV with a header row, then one line per row; floats via _cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(_cell(v) for v in row)


def write_monitor_csv(path, records) -> None:
    """Write monitor records as CSV with a header row, one record per row."""
    write_csv(path, MonitorRecord.field_names(), (rec.row() for rec in records))


def read_monitor_csv(path):
    """Parse a monitor CSV back into records, bit-identical to what was written.

    An unreadable file, a wrong header, a row of the wrong length or a cell
    that is not a number raises SnapshotCorrupt.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != MonitorRecord.field_names():
                raise SnapshotCorrupt(
                    f"monitor CSV header mismatch: {header[:3]}..."
                )
            return [MonitorRecord(*(float(v) for v in row)) for row in reader]
    except OSError as exc:
        raise SnapshotCorrupt(f"cannot read monitor CSV: {exc}") from None
    except (TypeError, ValueError) as exc:
        # TypeError: a row of the wrong length; ValueError: a non-numeric cell
        raise SnapshotCorrupt(f"monitor CSV line {reader.line_num}: {exc}") from None


@dataclass
class SnapshotData:
    t: float
    phi: np.ndarray   # (N_b, N_b, N_f, N_f)

    @property
    def n_base(self) -> int:
        return self.phi.shape[0]

    @property
    def n_fiber(self) -> int:
        return self.phi.shape[2]


def write_snapshot(path, t: float, phi: np.ndarray) -> None:
    if phi.ndim != 4 or phi.shape[0] != phi.shape[1] or phi.shape[2] != phi.shape[3]:
        raise SnapshotCorrupt(f"potential shape {phi.shape} is not (Nb, Nb, Nf, Nf)")
    nb, nf = phi.shape[0], phi.shape[2]
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIIII", SNAPSHOT_VERSION, 1, 1, nb, nf))
        fh.write(struct.pack("<d", t))
        fh.write(np.ascontiguousarray(phi, dtype="<f8").tobytes())


def read_snapshot(path) -> SnapshotData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotCorrupt(f"bad magic {blob[:4]!r}")
    header = blob[4:32]
    if len(header) < 28:
        raise SnapshotCorrupt("truncated snapshot header")
    version, m, n, nb, nf = struct.unpack("<IIIII", header[:20])
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorrupt(f"unsupported snapshot version {version}")
    if (m, n) != (1, 1):
        raise SnapshotCorrupt(f"unsupported dimensions (m, n) = ({m}, {n})")
    (t,) = struct.unpack("<d", header[20:28])
    payload = blob[32:]
    count = nb * nb * nf * nf
    if len(payload) != 8 * count:
        raise SnapshotCorrupt(
            f"payload holds {len(payload)} bytes, expected {8 * count}"
        )
    phi = np.frombuffer(payload, dtype="<f8").reshape(nb, nb, nf, nf).copy()
    return SnapshotData(t=t, phi=phi)


def format_summary(entries: dict) -> str:
    """Plain-text `key = value` lines; floats keep full precision."""
    return "".join(f"{key} = {_cell(value)}\n" for key, value in entries.items())


def write_summary(path, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.write(format_summary(entries))


def read_summary(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            value = value.strip()
            try:
                out[key.strip()] = float(value)
            except ValueError:
                out[key.strip()] = value
    return out
