"""Lattice scan over invariant boxes, streaming the feasible tuples.

The cells of the box and their v-intervals come from
:func:`constraints.feasible_cells`, whose cost grows with the degrees, the
rows of each degree's delta-interval and the cells, not with the box
volume; this module only renders them.  Output is always lexicographic in
(d, delta, chi, u, v), and every row is kept only if
:func:`constraints.is_feasible` holds at it.

Rows are rendered one slice of a cell ``(d, delta, chi, u)`` at a time, a
slice being at most :data:`_SLICE_ROWS` consecutive v of the cell.  Each
format has a row template, built from :data:`invariants.PROFILE_KEYS`,
whose ``%s`` slots take the tuple's five ints and then (some of)
:func:`invariants.profile_numbers`, which a plain CSV scan never calls.
With the cell fixed every slot is affine in v, so the slots are computed
at the first v of the slice and the next: those that agree are baked into
a slice template by one ``%``, and each that moves becomes a ``range``
column with that step.  The slice's rows that
:func:`constraints.is_feasible` keeps are then rendered together, by one
``%`` of the slice template repeated once per kept row, with no
``Profile``, dict or JSON encoder.  The rendered slices are
gathered up to :data:`_WRITE_BUDGET` characters and written to the sink a
chunk at a time, so a scan holds a bounded part of its output whatever
the box; a write that fails leaves the chunks before it in the sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from math import prod
from operator import itemgetter
from typing import Iterator, NamedTuple, Tuple

from .constraints import (HypothesisConfig, feasible_cells, is_feasible,
                          require_config)
from .invariants import (PROFILE_KEYS, InvariantTuple, Profile, profile,
                         profile_numbers)

_AXES = InvariantTuple._fields

CSV_HEADER = ",".join(_AXES)
CSV_PROFILE_COLUMNS = ("h2k", "hk2", "k3", "hc2", "c3", "KS2", "g",
                       "s1h2", "s20h", "s11h", "s300", "s210", "s111")

# A row's slots: the tuple's five ints, then its profile_numbers.  A JSONL
# row fills every slot into the bytes json.dumps gives for the dict of
# their keys: g, an exact Fraction that %s renders as p/2 when delta is
# odd, is then a JSON string, so that case has its own template.
_SLOTS = _AXES + PROFILE_KEYS


def _jsonl_row(g_slot: str) -> str:
    return "{" + ", ".join(f'"{key}": ' + (g_slot if key == "g" else "%s")
                           for key in _SLOTS) + "}"


_JSONL_ROWS = (_jsonl_row("%s"), _jsonl_row('"%s"'))  # by delta % 2

# The most characters scan() gathers before it writes them, unless one
# slice alone is longer, and the most rows of a cell rendered at once.
_WRITE_BUDGET = 1 << 16
_SLICE_ROWS = 256


def _parse_range(axis: str, value) -> Tuple[int, int]:
    """``value`` as an inclusive ``(lo, hi)`` pair of ints, an int being
    ``(value, value)``; :class:`ValueError` naming ``axis`` otherwise."""
    if type(value) is int:
        return value, value
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(type(x) is int for x in value)):
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

    def __post_init__(self):
        # The same check as ScanBox.of, so a box built either way is valid.
        for axis in _AXES:
            object.__setattr__(self, axis,
                               _parse_range(axis, getattr(self, axis)))

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
        return cls(**axes)

    @classmethod
    def parse(cls, text: str) -> "ScanBox":
        """Parse ``"d=1..2,delta=-2,chi=1,u=1..2,v=0..2"``."""
        if not isinstance(text, str):
            raise ValueError(f"ScanBox.parse needs a str, got {text!r}")
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
        return tuple(getattr(self, axis) for axis in _AXES)

    def volume(self) -> int:
        return prod(hi - lo + 1 for lo, hi in self.ranges())


class ScanResult(NamedTuple):
    scanned: int
    feasible: int


def _require_inputs(fn: str, box, cfg) -> None:
    """Raise a ``ValueError`` naming ``fn`` unless ``box`` is a
    :class:`ScanBox` and ``cfg`` a :class:`HypothesisConfig`."""
    if not isinstance(box, ScanBox):
        raise ValueError(f"{fn} needs a ScanBox, got {box!r}")
    require_config(fn, cfg)


def _feasible_cells(box: ScanBox, cfg: HypothesisConfig
                    ) -> Iterator[Tuple[int, int, int, int, range, list]]:
    """Each cell of :func:`constraints.feasible_cells`, in slices of at most
    :data:`_SLICE_ROWS` v, with the mask of the v that ``is_feasible``
    keeps, from one call per v; a slice that keeps no row is skipped.  The
    mask alone decides which rows the callers render."""
    for d, delta, chi, u, vs in feasible_cells(box.ranges(), cfg):
        for start in range(0, len(vs), _SLICE_ROWS):
            part = vs[start:start + _SLICE_ROWS]
            keep = [is_feasible((d, delta, chi, u, v), cfg) for v in part]
            if any(keep):
                yield d, delta, chi, u, part, keep


def iter_feasible(box: ScanBox, cfg: HypothesisConfig
                  ) -> Iterator[Tuple[InvariantTuple, Profile]]:
    """Lazily yield each feasible tuple with its profile, in lex order.
    Raises :class:`ValueError` on the first ``next()`` unless ``box`` is a
    :class:`ScanBox` and ``cfg`` a :class:`HypothesisConfig`."""
    _require_inputs("iter_feasible", box, cfg)
    for d, delta, chi, u, vs, keep in _feasible_cells(box, cfg):
        for v in compress(vs, keep):
            t = InvariantTuple(d, delta, chi, u, v)
            yield t, profile(t)


def scan(box: ScanBox, cfg: HypothesisConfig, sink,
         workers: int = 1, fmt: str = "csv",
         with_profile: bool = False) -> ScanResult:
    """Filter the box through the constraint system and write to ``sink``.

    ``fmt`` is ``"csv"`` or ``"jsonl"``.  ``with_profile`` appends profile
    columns to CSV rows only: a JSONL row always carries every profile
    key.  Output order is lexicographic.  ``workers``, an int of at least
    1, is accepted for compatibility; the scan runs in one process.

    The rows reach ``sink.write`` in chunks of at most 64 KiB, or of one
    slice of a cell where that alone is longer, so memory stays bounded
    however large the output.  The first write that raises ends the scan,
    and the exception propagates; the chunks written before it stay in the
    sink, so a failing sink may hold part of the output.  A ``box`` that is
    not a :class:`ScanBox`, or a ``cfg`` that is not a
    :class:`HypothesisConfig`, raises ``ValueError`` before any write.
    """
    _require_inputs("scan", box, cfg)
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown scan format {fmt!r}")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if type(with_profile) is not bool:
        raise ValueError(f"with_profile must be a bool, got {with_profile!r}")
    chunk, size = [], 0
    if fmt == "jsonl":
        keys, templates = _SLOTS, _JSONL_ROWS
    else:
        keys = _AXES + CSV_PROFILE_COLUMNS if with_profile else _AXES
        templates = (",".join(["%s"] * len(keys)),) * 2
        chunk.append(",".join((CSV_HEADER,) + keys[len(_AXES):]) + "\n")
        size = len(chunk[0])
    pick = itemgetter(*map(_SLOTS.index, keys))
    # A plain CSV row reads none of the profile numbers.
    numbers = profile_numbers if keys != _AXES else lambda *t: ()
    feasible = 0
    for d, delta, chi, u, vs, keep in _feasible_cells(box, cfg):
        # Every slot is affine in v (tests/test_invariants.py checks it), so
        # its values at two v give its value and its step along vs.
        at0, at1 = (pick((d, delta, chi, u, v) + numbers(d, delta, chi, u, v))
                    for v in (vs[0], vs[0] + 1))
        row = templates[delta % 2] % tuple(
            a if a == b else "%s" for a, b in zip(at0, at1)) + "\n"
        # v always moves, so there is at least one column.
        columns = [range(a, a + (b - a) * len(vs), b - a)
                   for a, b in zip(at0, at1) if a != b]
        n = keep.count(True)
        text = (row * n) % tuple(
            chain.from_iterable(compress(zip(*columns), keep)))
        feasible += n
        if size + len(text) > _WRITE_BUDGET and chunk:
            sink.write("".join(chunk))
            chunk, size = [], 0
        chunk.append(text)
        size += len(text)
    if chunk:
        sink.write("".join(chunk))
    return ScanResult(scanned=box.volume(), feasible=feasible)
