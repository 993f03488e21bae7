"""Lattice scan over invariant boxes, streaming the feasible tuples.

The scan walks the (d, delta, chi) triples of the box in lexicographic
order; in each, only the u that :func:`constraints.feasible_u` leaves; and
in each such cell, only the v that :func:`constraints.feasible_v` leaves.
So its cost grows with the number of triples, plus the cells left by the
u-interval, plus the feasible rows, not with the box volume.  Output is
always lexicographic in (d, delta, chi, u, v).

Each row is rendered from the closed forms through its format's row
template, built once at import from :data:`invariants.PROFILE_KEYS`: the
tuple's five ints and :func:`invariants.profile_numbers` fill its ``%s``
slots, with no ``Profile``, dict or JSON encoder per row.  Rows are
buffered and written to the sink in one call, so a failed write leaves no
partial output behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterator, Tuple

from .constraints import (HypothesisConfig, feasible_u, feasible_v,
                          is_feasible)
from .invariants import (PROFILE_KEYS, InvariantTuple, Profile, profile,
                         profile_numbers)

_AXES = ("d", "delta", "chi", "u", "v")

CSV_HEADER = "d,delta,chi,u,v"
CSV_PROFILE_COLUMNS = ("h2k", "hk2", "k3", "hc2", "c3", "KS2", "g",
                       "s1h2", "s20h", "s11h", "s300", "s210", "s111")

# Row templates, filled by "%" from the tuple's five ints and, after them,
# the profile_numbers of CSV_PROFILE_COLUMNS (CSV) or of PROFILE_KEYS
# (JSONL).  A JSONL row is what json.dumps gives for the dict of those keys:
# g is the text "p/2", a JSON string, when delta is odd, so that case has
# its own template.
_CSV_ROW = ",".join(["%s"] * len(_AXES))
_CSV_PROFILE_ROW = ",".join(["%s"] * (len(_AXES) + len(CSV_PROFILE_COLUMNS)))
_csv_profile_numbers = itemgetter(*map(PROFILE_KEYS.index,
                                       CSV_PROFILE_COLUMNS))


def _jsonl_row(g_slot: str) -> str:
    return "{" + ", ".join(f'"{key}": ' + (g_slot if key == "g" else "%s")
                           for key in _AXES + PROFILE_KEYS) + "}"


_JSONL_ROWS = (_jsonl_row("%s"), _jsonl_row('"%s"'))  # by delta % 2


def _parse_range(axis: str, value) -> Tuple[int, int]:
    if isinstance(value, int):
        return value, value
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(isinstance(x, int) for x in value)):
        raise ValueError(f"{axis} must be an integer or a pair of integers, "
                         f"got {value!r}")
    lo, hi = value
    if lo > hi:
        raise ValueError(f"empty range for {axis}: {lo}..{hi}")
    return lo, hi


@dataclass(frozen=True)
class ScanBox:
    """Inclusive integer ranges for each invariant; a fixed value is lo == hi."""

    d: Tuple[int, int]
    delta: Tuple[int, int]
    chi: Tuple[int, int]
    u: Tuple[int, int]
    v: Tuple[int, int]

    @classmethod
    def of(cls, **axes) -> "ScanBox":
        """Build from ints or (lo, hi) pairs, e.g. ``ScanBox.of(d=(1, 2),
        delta=-2, chi=1, u=(1, 2), v=(0, 2))``."""
        missing = [a for a in _AXES if a not in axes]
        if missing:
            raise ValueError(f"missing axes: {missing}")
        extra = [a for a in axes if a not in _AXES]
        if extra:
            raise ValueError(f"unknown axes: {extra}")
        return cls(**{a: _parse_range(a, axes[a]) for a in _AXES})

    @classmethod
    def parse(cls, text: str) -> "ScanBox":
        """Parse ``"d=1..2,delta=-2,chi=1,u=1..2,v=0..2"``."""
        axes = {}
        for chunk in text.split(","):
            if "=" not in chunk:
                raise ValueError(f"bad box component {chunk!r}: expected "
                                 "axis=value or axis=lo..hi")
            name, _, rng = chunk.partition("=")
            name = name.strip()
            if name not in _AXES:
                raise ValueError(f"unknown box axis {name!r}")
            if name in axes:
                raise ValueError(f"duplicate box axis {name!r}")
            rng = rng.strip()
            try:
                if ".." in rng:
                    lo_s, _, hi_s = rng.partition("..")
                    axes[name] = (int(lo_s), int(hi_s))
                else:
                    axes[name] = int(rng)
            except ValueError as exc:
                raise ValueError(f"bad range for {name!r}: {rng!r}") from exc
        return cls.of(**axes)

    def ranges(self):
        return (self.d, self.delta, self.chi, self.u, self.v)

    def volume(self) -> int:
        n = 1
        for lo, hi in self.ranges():
            n *= hi - lo + 1
        return n


@dataclass(frozen=True)
class ScanResult:
    scanned: int
    feasible: int


def _feasible_points(box: ScanBox, cfg: HypothesisConfig
                     ) -> Iterator[InvariantTuple]:
    # The u- and v-intervals only skip work: is_feasible decides every row.
    (d0, d1), (e0, e1), (c0, c1), (u0, u1), (v0, v1) = box.ranges()
    for d, delta, chi in product(range(d0, d1 + 1), range(e0, e1 + 1),
                                 range(c0, c1 + 1)):
        for u in feasible_u(d, delta, chi, cfg, u0, u1):
            for v in feasible_v(d, delta, chi, u, cfg, v0, v1):
                t = InvariantTuple(d, delta, chi, u, v)
                if is_feasible(t, cfg):
                    yield t


def iter_feasible(box: ScanBox, cfg: HypothesisConfig
                  ) -> Iterator[Tuple[InvariantTuple, Profile]]:
    """Lazily yield each feasible tuple with its profile, in lex order."""
    for t in _feasible_points(box, cfg):
        yield t, profile(t)


def scan(box: ScanBox, cfg: HypothesisConfig, sink,
         workers: int = 1, fmt: str = "csv",
         with_profile: bool = False,
         header: bool = True) -> ScanResult:
    """Filter the box through the constraint system and write to ``sink``.

    ``fmt`` is ``"csv"`` or ``"jsonl"``; CSV optionally appends profile
    columns.  Output order is lexicographic.  ``workers`` is accepted for
    compatibility; the scan runs in one process.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown scan format {fmt!r}")
    lines = []
    if header and fmt == "csv":
        cols = CSV_HEADER
        if with_profile:
            cols += "," + ",".join(CSV_PROFILE_COLUMNS)
        lines.append(cols)
    points = _feasible_points(box, cfg)
    if fmt == "jsonl":
        rows = [_JSONL_ROWS[t[1] % 2] % (t + profile_numbers(*t))
                for t in points]
    elif with_profile:
        rows = [_CSV_PROFILE_ROW % (t + _csv_profile_numbers(
            profile_numbers(*t))) for t in points]
    else:
        rows = [_CSV_ROW % t for t in points]
    lines.extend(rows)
    lines.append("")  # the join ends each line in "\n"; no lines give ""
    sink.write("\n".join(lines))
    return ScanResult(scanned=box.volume(), feasible=len(rows))
