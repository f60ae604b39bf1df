"""The round robin that pads IP classes, as a stream and in closed form.

`round_robin(supply)` yields keys in turn by decreasing supply, each while
its supply lasts; an IP realization cuts it into consecutive windows of
`width` keys, one window per class.  `window_counts` gives the same
windows' counts per run of classes without producing the sequence: round
r yields the keys whose supply exceeds r, a prefix of one fixed order, so
the sequence is periodic between the points where a supply runs out.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def order(supply: dict) -> list:
    """The keys in round-robin order: by decreasing supply, ties kept."""
    return sorted(supply, key=lambda key: -supply[key])


def round_robin(supply: dict):
    """Keys in turn by decreasing supply, each yielded while its supply
    lasts; consumes `supply`."""
    for key in itertools.cycle(order(supply)):
        if supply[key] > 0:
            supply[key] -= 1
            yield key


def phases(supply: dict) -> list:
    """The `round_robin(supply)` sequence as phases (start, stop, keys):
    positions start <= s < stop hold keys[(s - start) % len(keys)]."""
    keys = order(supply)
    tops = [max(supply[key], 0) for key in keys] + [0]
    out, start = [], 0
    for active in range(len(keys), 0, -1):
        rounds = tops[active - 1] - tops[active]
        if rounds:
            out.append((start, start + active * rounds, keys[:active]))
            start += active * rounds
    return out


def cycle_piece(keys: list, offset: int, length: int) -> list:
    """`length` consecutive keys of keys, keys, ... from position `offset`."""
    a = len(keys)
    return keys * (length // a) + [keys[(offset + i) % a] for i in range(length % a)]


def window_counts(supply: dict, width: int, runs) -> list:
    """Per run, a Counter of its windows as sorted key tuples.

    The same counts as cutting `round_robin(supply)` into consecutive
    windows of `width` keys and giving each run its number of windows in
    turn.  A window inside a phase depends only on its offset modulo the
    phase's key count a, and the offsets of consecutive windows repeat
    with period a / gcd(a, width), so a run's windows in one phase cost at
    most that many pieces.  Only windows that straddle a phase boundary,
    at most one per boundary, are assembled piece by piece.
    """
    if not width:
        return [Counter({(): m}) if m else Counter() for m in runs]
    spans = phases(supply)
    out, pos, ph = [], 0, 0
    for m in runs:
        counts = Counter()
        end = pos + m * width
        while pos < end:
            while spans[ph][1] <= pos:
                ph += 1
            start, stop, keys = spans[ph]
            inside = min(stop - pos, end - pos) // width
            if inside:
                period = len(keys) // math.gcd(len(keys), width)
                for j in range(min(inside, period)):
                    window = cycle_piece(keys, pos - start + j * width, width)
                    counts[tuple(sorted(window))] += (inside // period
                                                      + (j < inside % period))
                pos += inside * width
                continue
            window, q, at = [], ph, pos
            while at < pos + width:
                start, stop, keys = spans[q]
                take = min(pos + width, stop) - at
                window += cycle_piece(keys, at - start, take)
                at += take
                q += 1
            counts[tuple(sorted(window))] += 1
            pos += width
        out.append(counts)
    return out
