"""Lattice scan over invariant boxes, streaming the feasible tuples.

The scan walks the (d, delta, chi) triples of the box in lexicographic
order; in each, only the u that :func:`constraints.feasible_u` leaves; and
in each such cell, only the v that :func:`constraints.feasible_v` leaves.
So its cost grows with the number of triples, plus the cells left by the
u-interval, plus the feasible rows, not with the box volume.  Output is
always lexicographic in
(d, delta, chi, u, v).  Rows are buffered and written to the sink in one
call, so a failed write leaves no partial output behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Tuple

from .constraints import (HypothesisConfig, feasible_u, feasible_v,
                          is_feasible)
from .invariants import InvariantTuple, Profile, profile

CSV_HEADER = "d,delta,chi,u,v"
CSV_PROFILE_COLUMNS = ("h2k", "hk2", "k3", "hc2", "c3", "KS2", "g",
                       "s1h2", "s20h", "s11h", "s300", "s210", "s111")

_AXES = ("d", "delta", "chi", "u", "v")


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


def _format_row(t: InvariantTuple, fmt: str, with_profile: bool) -> str:
    if fmt == "csv":
        cells = [str(x) for x in t]
        if with_profile:
            p = profile(t).to_json_dict()
            cells += [str(p[col]) for col in CSV_PROFILE_COLUMNS]
        return ",".join(cells)
    d, delta, chi, u, v = t
    record = {"d": d, "delta": delta, "chi": chi, "u": u, "v": v}
    record.update(profile(t).to_json_dict())
    return json.dumps(record)


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
    rows = [_format_row(t, fmt, with_profile)
            for t in _feasible_points(box, cfg)]
    lines.extend(rows)
    sink.write("".join(line + "\n" for line in lines))
    return ScanResult(scanned=box.volume(), feasible=len(rows))
