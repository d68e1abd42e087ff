"""Function representations: exact piecewise-linear convex, grids, max-affine.

Two scalar backends coexist.  ``PLConvex1D`` is fully exact (Fraction
breakpoints/values/slopes) and is the only representation on which
zero-tolerance theorem checks run.  ``GridFunction`` stores float values on a
finite point list and is +inf off the listed points by convention.  The
finite carriers ``SampledSet``, ``MaxAffine`` and ``OperatorGraph`` sit next
to them, and ``dump_instance``/``load_instance`` are the one reader and
writer of instance files for every kind.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Union

import numpy as np

from .extreal import (
    ExtReal,
    NEG_INF,
    POS_INF,
    MixedScalarError,
    as_extreal,
    ext_sup,
    format_scalar,
    parse_finite_exact,
    parse_scalar,
)

GRID_TOL = 1e-9

# largest list an instance file may hold (breakpoints, samples, pieces,
# graph pairs), and largest probe grid or table a verb will build
MAX_GRID_POINTS = 1 << 20

Point = Union[int, float, Fraction, tuple]


def dot(p: Point, q: Point, dim: int):
    """Inner product; 1D points are bare scalars, 2D points are pairs."""
    if dim == 1:
        return p * q
    return sum(a * b for a, b in zip(p, q))


def point_sub(p: Point, q: Point, dim: int):
    if dim == 1:
        return p - q
    return tuple(a - b for a, b in zip(p, q))


def is_exact_scalar(v) -> bool:
    """True for the exact backend's payloads: int or Fraction, not bool."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _upper_hull(lines) -> list:
    """The lines of ``lines`` that reach their upper envelope, as (slope,
    intercept, index) in slope order, ties kept: a line that only touches
    it where its neighbours meet stays.  ``lines`` are (slope, intercept)
    pairs in slope order; O(len(lines))."""
    hull = []
    for i, (s3, c3) in enumerate(lines):
        while len(hull) >= 2:
            (s1, c1, _), (s2, c2, _) = hull[-2], hull[-1]
            # the middle line lies below where its neighbours meet
            if (c1 - c3) * (s2 - s1) < (c1 - c2) * (s3 - s1):
                hull.pop()
            else:
                break
        hull.append((s3, c3, i))
    return hull


def line_envelope_values(lines, ys) -> list:
    """max of slope * y + intercept over ``lines`` at each y, exactly, as
    (value, index into ``lines`` of the line attaining it).

    ``lines`` is a nonempty list of (slope, intercept) pairs with strictly
    increasing slopes and ``ys`` is ascending; on a tie the later line
    wins.  The lines reduce to their ``_upper_hull``, which one sweep over
    ys evaluates: O(len(lines) + len(ys)).  Its callers pass ints (see
    ``line_envelope_at``), so no comparison normalises a fraction.
    """
    hull = _upper_hull(lines)
    out = []
    k = 0
    s, c, i = hull[0]
    for y in ys:
        val = s * y + c
        while k + 1 < len(hull):
            s2, c2, i2 = hull[k + 1]
            nxt = s2 * y + c2
            if nxt < val:
                break
            k += 1
            s, c, i, val = s2, c2, i2, nxt
        out.append((val, i))
    return out


# ints over a common denominator that is no power of two lose to Fractions past about
# 1,300 bits in the exact hull, 1,800 in ``fitzpatrick_table``, 2,800 in ``values_at``
_SCALE_BITS = 1500


def _scaled(cs) -> tuple:
    """The one rule by which exact kernels read numbers (ints, floats,
    Fractions) as ints: (ns, d) with each n / d a number and d the lcm of
    the denominators; once that lcm is no power of two and passes
    ``_SCALE_BITS``, the numbers as Fractions and d = 1."""
    ratios = [c.as_integer_ratio() for c in cs]
    d = 1
    for q in {q for _n, q in ratios}:
        d = math.lcm(d, q)
        if d.bit_length() > _SCALE_BITS and d & (d - 1):
            return list(map(Fraction, cs)), 1
    return [n * (d // q) for n, q in ratios], d


def line_envelope_at(lines, probes) -> list:
    """max of slope * y + intercept over ``lines`` at each probe, exactly,
    in the probes' order.

    ``lines`` is a nonempty iterable of exact (slope, intercept) pairs in
    any order; of equal slopes the first largest intercept is kept.  The
    probes are read as Y over dy, the slopes and intercepts as S and C
    over d (``_scaled``), so S * Y + C * dy is d * dy times each value;
    one sort of each, then ``line_envelope_values``: O((L + p) log(L + p))
    for L lines and p probes.  A value comes back as an int when its
    line's slope and intercept and its probe are ints (what int
    arithmetic gives), else as a Fraction.
    """
    lines = list(lines)
    ys, dy = _scaled(probes)
    sc, d = _scaled([q for line in lines for q in line])
    best = {}  # scaled slope -> [scaled intercept, slope is int, intercept is int]
    for (s, c), key, icpt in zip(lines, sc[::2], sc[1::2]):
        icpt *= dy
        old = best.get(key)
        if old is None:
            best[key] = [icpt, isinstance(s, int), isinstance(c, int)]
        elif icpt > old[0]:
            old[0], old[2] = icpt, isinstance(c, int)
    srt = sorted(best.items())
    order = sorted(range(len(ys)), key=ys.__getitem__)
    vals = line_envelope_values(
        [(s, c) for s, (c, _si, _ci) in srt], [ys[q] for q in order]
    )
    d *= dy
    out = [None] * len(probes)
    for q, (v, i) in zip(order, vals):
        _c, s_int, c_int = srt[i][1]
        exact_int = s_int and c_int and isinstance(probes[q], int)
        out[q] = v // d if exact_int else Fraction(v, d)
    return out


def shadow(q, d: int = 1) -> float:
    """The float nearest the exact q / d (q an int or a Fraction, d > 0 an
    int), or an infinity past the float range.  Int true division rounds
    correctly, so the map is monotone: x < y gives shadow(x) <= shadow(y)."""
    try:
        return q.numerator / (q.denominator * d)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def ranks(a, a_shadows, keys, key_shadows, right=False) -> list:
    """``[bisect_left(a, k) for k in keys]`` (``bisect_right`` when
    ``right``) for an ascending ``a``, in the order of keys, given float
    shadows of a's entries and of the keys that are monotone over both:
    u < w gives shadow(u) <= shadow(w).  ``shadow`` gives such floats for
    numbers, and a tuple ordered by a number first may take its shadow.

    So an entry whose shadow lies below the key's is below the key, and
    one whose shadow lies above is above it: two C bisections on the
    floats bound the rank to the run of entries that share the key's
    shadow, and only inside that run does an exact bisection compare the
    key with entries.  O(p log m) float comparisons for p keys over m
    entries, plus O(log r) exact ones per key whose shadow a run of r
    entries shares; keys need not be sorted.
    """
    find = bisect_right if right else bisect_left
    out = []
    for k, s in zip(keys, key_shadows):
        lo = bisect_left(a_shadows, s)
        hi = bisect_right(a_shadows, s, lo)
        out.append(lo if lo == hi else find(a, k, lo, hi))
    return out


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise MixedScalarError(f"exact backend needs int/Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# intervals (domains, subgradient ranges)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval1D:
    """A possibly unbounded real interval; ``None`` bounds mean -inf / +inf."""

    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("empty interval; use None instead")
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                raise ValueError("degenerate open interval is empty")

    def contains(self, x) -> bool:
        if self.lo is not None:
            if x < self.lo or (self.lo_open and x == self.lo):
                return False
        if self.hi is not None:
            if x > self.hi or (self.hi_open and x == self.hi):
                return False
        return True


# ---------------------------------------------------------------------------
# exact piecewise-linear convex functions on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLConvex1D:
    """Piecewise-linear convex function with exact rational data.

    ``left_recession``/``right_recession`` are the slopes of the affine
    extension beyond the breakpoint span; ``None`` marks a domain wall (the
    function is +inf strictly beyond the endpoint).  ``override_left`` /
    ``override_right`` optionally raise the value at a wall endpoint above the
    interpolated limit (finite Fraction or +inf), which is how non-lsc
    behaviour and open domain ends are modelled.
    """

    breakpoints: tuple
    values: tuple
    left_recession: Fraction | None = None
    right_recession: Fraction | None = None
    override_left: ExtReal | None = None
    override_right: ExtReal | None = None
    label: str | None = None

    def __post_init__(self):
        """Full validation, for data from outside: every breakpoint, value
        and recession becomes a Fraction, overrides become ExtReals (a no-op
        one is dropped), and every invariant is checked.  Derived functions
        that hold the invariants by construction use ``_make`` instead.

        The checks and the slopes run on the numerators and denominators,
        pairwise: with b = p/q and v = r/s, consecutive breakpoints are
        ordered when p1 q0 - p0 q1 > 0, the segment slope is the one
        Fraction (r1 s0 - r0 s1) q0 q1 / ((p1 q0 - p0 q1) s0 s1), and two
        slopes compare by their cross products."""
        bps = tuple(map(_frac, self.breakpoints))
        vals = tuple(map(_frac, self.values))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) == 0:
            raise ValueError("need at least one breakpoint")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values length mismatch")
        s = []
        convex = True
        p0, q0 = bps[0].numerator, bps[0].denominator
        r0, s0 = vals[0].numerator, vals[0].denominator
        n0 = d0 = None
        for b, v in zip(bps[1:], vals[1:]):
            p1, q1, r1, s1 = b.numerator, b.denominator, v.numerator, v.denominator
            db = p1 * q0 - p0 * q1
            if db <= 0:
                raise ValueError("breakpoints must be strictly increasing")
            g = Fraction((r1 * s0 - r0 * s1) * q0 * q1, db * s0 * s1)
            n1, d1 = g.numerator, g.denominator
            if n0 is not None and n0 * d1 > n1 * d0:
                convex = False
            s.append(g)
            p0, q0, r0, s0, n0, d0 = p1, q1, r1, s1, n1, d1
        sl = self.left_recession
        sr = self.right_recession
        if sl is not None:
            object.__setattr__(self, "left_recession", _frac(sl))
        if sr is not None:
            object.__setattr__(self, "right_recession", _frac(sr))
        s = tuple(s)
        object.__setattr__(self, "_slopes", s)
        if not convex:
            raise ValueError("interior slopes must be nondecreasing (convexity)")
        if self.left_recession is not None:
            first = s[0] if s else None
            if first is not None and self.left_recession > first:
                raise ValueError("left recession slope must not exceed first slope")
            if not s and self.right_recession is not None:
                if self.left_recession > self.right_recession:
                    raise ValueError("recession slopes out of order")
        if self.right_recession is not None and s and self.right_recession < s[-1]:
            raise ValueError("right recession slope must be at least the last slope")
        for side, ov in (("left", self.override_left), ("right", self.override_right)):
            if ov is None:
                continue
            ov = as_extreal(Fraction(ov) if isinstance(ov, int) else ov)
            if ov.is_neg_inf:
                raise ValueError("override cannot be -inf")
            if ov.is_finite:
                ov = ExtReal(_frac(ov.value))
            base = vals[0] if side == "left" else vals[-1]
            if ov.is_finite and ov.value < base:
                raise ValueError("override must not lie below the interpolated value")
            if ov.is_finite and ov.value == base:
                ov = None  # no-op override
            rec = self.left_recession if side == "left" else self.right_recession
            if ov is not None and rec is not None:
                raise ValueError(
                    "override requires a domain wall on that side "
                    "(raising an interior-domain value would break convexity)"
                )
            if ov is not None and len(bps) == 1 and sl is None and sr is None:
                raise ValueError("override on a single-point domain is just a value")
            object.__setattr__(self, f"override_{side}", ov)

    @classmethod
    def _make(
        cls,
        breakpoints: tuple,
        values: tuple,
        left_recession=None,
        right_recession=None,
        override_left=None,
        override_right=None,
        label=None,
        slopes=None,
    ) -> "PLConvex1D":
        """The private constructor of derived functions: sets the fields as
        given and checks nothing.  The caller guarantees what the public
        constructor would establish: Fraction breakpoints (strictly
        increasing), values and recessions, convexity, and overrides that
        are None, POS_INF or a finite ExtReal(Fraction) strictly above the
        end value at a wall, and not on a single-point domain.
        ``slopes``, when the caller knows them, must equal the segment
        slopes; otherwise they are computed, one division per segment."""
        if slopes is None:
            slopes = tuple(
                (v1 - v0) / (b1 - b0)
                for b0, b1, v0, v1 in zip(breakpoints, breakpoints[1:], values, values[1:])
            )
        f = object.__new__(cls)
        f.__dict__.update(
            breakpoints=breakpoints,
            values=values,
            left_recession=left_recession,
            right_recession=right_recession,
            override_left=override_left,
            override_right=override_right,
            label=label,
            _slopes=slopes,
        )
        return f

    # -- basic structure ------------------------------------------------
    def slopes(self) -> tuple:
        """Interior segment slopes, one per consecutive breakpoint pair."""
        return self._slopes

    @cached_property
    def gaps(self) -> tuple:
        """The slope of f on each gap between breakpoints, None at a wall:
        (left_recession, *slopes(), right_recession).  Gap j lies between
        breakpoints j - 1 and j, so ``bisect_right(breakpoints, x)`` names
        the gap of any x that is not a breakpoint."""
        return (self.left_recession, *self._slopes, self.right_recession)

    @cached_property
    def shadows(self) -> list:
        """The float shadow of each breakpoint (see ``shadow``), for the
        batched sweeps' ``ranks``."""
        return list(map(shadow, self.breakpoints))

    def closure(self) -> "PLConvex1D":
        """Same function with overrides dropped (the lsc hull)."""
        if self.override_left is None and self.override_right is None:
            return self
        return PLConvex1D._make(
            self.breakpoints,
            self.values,
            self.left_recession,
            self.right_recession,
            label=self.label,
            slopes=self._slopes,
        )

    def tilt(self, xstar: Fraction) -> "PLConvex1D":
        """f - <., xstar>: subtract a linear term; breakpoints unchanged."""
        xstar = _frac(xstar)
        ovl = self.override_left
        ovr = self.override_right
        if ovl is not None and ovl.is_finite:
            ovl = ExtReal(ovl.value - xstar * self.breakpoints[0])
        if ovr is not None and ovr.is_finite:
            ovr = ExtReal(ovr.value - xstar * self.breakpoints[-1])
        return PLConvex1D._make(
            self.breakpoints,
            tuple(v - xstar * b for v, b in zip(self.values, self.breakpoints)),
            None if self.left_recession is None else self.left_recession - xstar,
            None if self.right_recession is None else self.right_recession - xstar,
            ovl,
            ovr,
            slopes=tuple(s - xstar for s in self._slopes),
        )

    # -- evaluation -----------------------------------------------------
    def _value(self, j: int, x) -> ExtReal:
        """f(x), given j = bisect_right(breakpoints, x): the number of
        breakpoints at or left of x.  Off the breakpoints, f is the line of
        gap j through breakpoint max(j - 1, 0), or +inf on a wall: one
        integer fraction over the four denominators of x, b[k], v[k] and
        g.  Normalized x and b[j - 1] are equal when their numerators and
        denominators are."""
        b, v = self.breakpoints, self.values
        xn, xd = x.numerator, x.denominator
        if j and xn == b[j - 1].numerator and xd == b[j - 1].denominator:
            if j == 1 and self.override_left is not None:
                return self.override_left
            if j == len(b) and self.override_right is not None:
                return self.override_right
            return ExtReal(v[j - 1])
        g = self.gaps[j]
        if g is None:
            return POS_INF
        k = j - 1 if j else 0
        bk, vk = b[k], v[k]
        bd, vd, gd = bk.denominator, vk.denominator, g.denominator
        num = vk.numerator * gd * xd * bd + vd * g.numerator * (xn * bd - bk.numerator * xd)
        return ExtReal(Fraction(num, vd * gd * xd * bd))

    def value_at(self, x) -> ExtReal:
        """f(x) at one probe: one probe of ``values_at``."""
        return self.values_at((x,))[0]

    def values_at(self, xs) -> list:
        """``[value_at(x) for x in xs]``, in the order of xs.  One
        ``ranks`` call places the probes among the breakpoints by their
        float shadows, comparing a probe with breakpoints exactly only where
        their shadows tie: O(p log m) for p probes in any order."""
        xs = list(map(_frac, xs))
        js = ranks(self.breakpoints, self.shadows, xs, map(shadow, xs), right=True)
        return list(map(self._value, js, xs))


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


def _canon_coord(c):
    # bool is an int, but a coordinate spelled true or false is a typo; a
    # str, bytes or Decimal is no Real, which float() would read or round
    if type(c) not in _PLAIN and (isinstance(c, bool) or not isinstance(c, numbers.Real)):
        raise TypeError(f"cannot parse scalar from {type(c).__name__}")
    return float(c) if not isinstance(c, (int, Fraction)) else c


def _canon_point(p, dim: int):
    if dim == 1:
        if isinstance(p, (tuple, list)):
            if len(p) != 1:
                raise ValueError("1D point must be a scalar")
            p = p[0]
        return _canon_coord(p)
    if not isinstance(p, (tuple, list)) or len(p) != dim:
        raise ValueError(f"{dim}D point must be a {dim}-tuple")
    return tuple(map(_canon_coord, p))


@dataclass(frozen=True)
class SampledSet:
    """A finite sample of a set; 1D points are scalars, 2D points pairs."""

    dim: int
    points: tuple
    label: str | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        pts = tuple(_canon_point(p, self.dim) for p in self.points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in sampled set")
        object.__setattr__(self, "points", pts)


_PLAIN = frozenset((float, int, Fraction))


def _coords(pts: tuple, dim: int):
    return pts if dim == 1 else (c for p in pts for c in p)


def _canon_points(points, dim: int) -> tuple:
    """``_canon_point`` over a whole point list, and whether every
    coordinate is a float.  A list that is canonical already (plain scalars
    in 1D, pairs of them in 2D) passes unchanged after a type scan that runs
    at C speed."""
    pts = tuple(points)
    if dim == 1 or set(map(type, pts)) <= {tuple} and set(map(len, pts)) <= {dim}:
        kinds = set(map(type, _coords(pts, dim)))
        if kinds <= _PLAIN:
            return pts, kinds <= {float}
    pts = tuple(_canon_point(p, dim) for p in pts)
    return pts, set(map(type, _coords(pts, dim))) <= {float}


def _float_array(xs, what: str) -> np.ndarray:
    try:
        # np.fromiter reads a list of scalars faster than np.array
        return np.fromiter(xs, float, len(xs)) if isinstance(xs, list) else np.array(xs, dtype=float)
    except OverflowError:
        raise ValueError(f"a grid {what} is too large for a float") from None


def _has_duplicates(pts, arr: np.ndarray) -> bool:
    """Two points equal as numbers.  Equal points have equal floats, so a
    sort of the float array finds every candidate; the exact set check
    only runs when it does (an int or a Fraction can share a float with a
    different point).  ``pts`` is None when the floats are the points."""
    if len(arr) < 2:
        return False
    if arr.ndim == 1:
        if (arr[1:] > arr[:-1]).all():
            return False
        s = np.sort(arr)
        hit = (s[1:] == s[:-1]).any()
    else:
        s = arr[np.lexsort(arr.T[::-1])]
        hit = (s[1:] == s[:-1]).all(axis=1).any()
    return bool(hit) and (pts is None or len(set(pts)) != len(pts))


class _BuiltOnRead:
    """Descriptor behind the ``points`` and ``values`` fields of
    ``GridFunction``.

    The dataclass constructor's write lands in ``__set__`` and waits there,
    raw, for ``__post_init__``; a read builds the field's Python tuple from
    the float array with ``build`` on first use and caches it.  Reading it
    on the class raises AttributeError, which tells ``dataclass`` the field
    has no default.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        d = obj.__dict__
        key = "_built_" + self.name
        if key not in d:
            d[key] = self.build(obj)
        return d[key]

    def __set__(self, obj, raw):
        obj.__dict__["_raw_" + self.name] = raw


def _point_tuple(g) -> tuple:
    xs = g.point_array.tolist()
    return tuple(xs if g.dim == 1 else map(tuple, xs))


@dataclass(frozen=True)
class GridFunction:
    """Float-backed function values on listed points; +inf off the list.

    The numbers live in two float64 arrays built once by the constructor:
    ``point_array`` (n, or n x 2) and ``value_array`` (n, +inf for listed
    off-domain samples).  ``points`` holds the canonical Python points,
    which is how cells spell them; ``float_points`` says every coordinate
    is a float, so that ``point_array`` spells them too.  A float64 array
    of points (shape n in 1D, n x 2 in 2D) is taken as it stands, with no
    type scan, and its ``points`` tuple is built from the array on first
    read, as the ExtReal tuple ``values``, the ``value_at`` index and
    ``finite_items`` are.
    """

    dim: int
    points: tuple = _BuiltOnRead(_point_tuple)
    values: tuple = _BuiltOnRead(
        lambda g: tuple(ExtReal(v) for v in g.value_array.tolist())
    )
    label: str | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        src = self.__dict__.pop("_raw_points")
        if (
            isinstance(src, np.ndarray)
            and src.dtype == np.float64
            and src.shape[1:] == (() if self.dim == 1 else (2,))
        ):
            xs = src.copy()
            # the floats are the points: no tuple until ``points`` is read
            pts, floats = None, True
        else:
            pts, floats = _canon_points(src, self.dim)
            xs = _float_array(pts, "point")
            if self.dim == 2:
                xs = xs.reshape(len(pts), 2)
            self.__dict__["_built_points"] = pts
        if not np.isfinite(xs).all():
            raise ValueError("grid point coordinates must be finite")
        if _has_duplicates(pts, xs):
            raise ValueError("duplicate grid points")
        raw = self.__dict__.pop("_raw_values")
        if isinstance(raw, np.ndarray) and raw.dtype.kind == "f" or set(
            map(type, raw)
        ) <= _PLAIN:
            vals = _float_array(raw, "value")
        else:
            vals = _float_array([float(as_extreal(v)) for v in raw], "value")
        if np.isnan(vals).any():
            raise ValueError("NaN is not an extended real")
        if len(xs) != len(vals):
            raise ValueError("points and values length mismatch")
        if (vals == -np.inf).any():
            raise ValueError("-inf value makes the grid function improper")
        vals.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "float_points", floats)
        object.__setattr__(self, "point_array", xs)
        object.__setattr__(self, "value_array", vals)

    def _cached(self, key, build):
        d = self.__dict__
        if key not in d:
            d[key] = build()
        return d[key]

    def value_at(self, p) -> ExtReal:
        index = self._cached(
            "_index", lambda: {q: i for i, q in enumerate(self.points)}
        )
        i = index.get(_canon_point(p, self.dim))
        return POS_INF if i is None else ExtReal(float(self.value_array[i]))

    def finite_mask(self) -> np.ndarray:
        return self._cached("_finite", lambda: self.value_array < np.inf)

    def finite_arrays(self):
        """(points, values) arrays of the finite samples, in list order."""
        def build():
            m = self.finite_mask()
            return self.point_array[m], self.value_array[m]

        return self._cached("_finite_arrays", build)

    def finite_items(self):
        def build():
            vals = self.value_array.tolist()
            return [(p, v) for p, v in zip(self.points, vals) if v < math.inf]

        return list(self._cached("_finite_items", build))


@dataclass(frozen=True)
class MaxAffine:
    """sup of affine pieces x -> <x - anchor, slope> + level; empty sup = -inf."""

    dim: int
    pieces: tuple  # of (anchor, slope, level)
    label: str | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        canon = []
        for a, s, lv in self.pieces:
            canon.append((_canon_point(a, self.dim), _canon_point(s, self.dim), lv))
        object.__setattr__(self, "pieces", tuple(canon))
        object.__setattr__(self, "_exact", self.dim == 1 and all(
            is_exact_scalar(v) for piece in canon for v in piece
        ))

    def first_max_at(self, x) -> ExtReal:
        """The sup of the pieces at x by a scan in piece order, O(P), on any
        data: on a tie the first maximal piece gives the payload.  A float
        overflow (a term of finite data that is not finite) is decided over
        the rationals the floats denote, rounded once, and refused, naming
        x, when that lies past the float range."""
        d = self.dim
        x = _canon_point(x, d)
        terms = [dot(point_sub(x, a, d), s, d) + lv for a, s, lv in self.pieces]
        if all(t - t == 0 for t in terms):  # every term finite
            return ext_sup(terms)
        q = Fraction if d == 1 else (lambda p: tuple(map(Fraction, p)))
        try:
            top = shadow(max(dot(point_sub(q(x), q(a), d), q(s), d) + Fraction(lv)
                             for a, s, lv in self.pieces))
        except (OverflowError, ValueError):  # data holding an infinity or a NaN
            return ext_sup(terms)
        if math.isinf(top):
            side = "above" if top > 0 else "below"
            raise ValueError(f"the max-affine function at {x!r} is {side} the float range")
        return ExtReal(top)

    def value_at(self, x) -> ExtReal:
        """The sup of the pieces at x: one probe of ``values_at``."""
        return self.values_at((x,))[0]

    def values_at(self, xs) -> list:
        """``[value_at(x) for x in xs]``.  When the pieces and the probes are
        exact and 1D, the pieces are the lines (slope s, intercept
        lv - s a) and one ``line_envelope_at`` evaluates them all:
        O((P + p) log(P + p)) instead of O(P p); on a tie the steeper line
        gives the payload.  Anything else takes ``first_max_at`` per probe."""
        xs = [_canon_point(x, self.dim) for x in xs]
        if not (self._exact and all(map(is_exact_scalar, xs))):
            return list(map(self.first_max_at, xs))
        if not self.pieces:
            return [NEG_INF] * len(xs)
        lines = ((s, lv - s * a) for a, s, lv in self.pieces)
        return [ExtReal(v) for v in line_envelope_at(lines, xs)]


@dataclass(frozen=True)
class OperatorGraph:
    """Finite list of (point, dual point) pairs, optionally backed by the
    exact ``operators.SubdiffStructure1D`` it was flattened from."""

    dim: int
    pairs: tuple
    label: str | None = None
    structure: object = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        seen = set()
        canon = []
        for x, y in self.pairs:
            key = (x, y)
            if key not in seen:
                seen.add(key)
                canon.append(key)
        object.__setattr__(self, "pairs", tuple(canon))


Func = Union[PLConvex1D, GridFunction, MaxAffine]


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------


def effective_domain(f: Func):
    """Interval (exact endpoints) for PLConvex1D, finite-point sample for grids."""
    if isinstance(f, PLConvex1D):
        lo = None if f.left_recession is not None else f.breakpoints[0]
        hi = None if f.right_recession is not None else f.breakpoints[-1]
        lo_open = lo is not None and f.override_left is not None and f.override_left.is_pos_inf
        hi_open = hi is not None and f.override_right is not None and f.override_right.is_pos_inf
        if lo is not None and lo == hi and (lo_open or hi_open):
            raise ValueError("empty domain")  # unreachable: no override on a point
        return Interval1D(lo, hi, lo_open, hi_open)
    if isinstance(f, GridFunction):
        return SampledSet(f.dim, tuple(p for p, _ in f.finite_items()))
    if isinstance(f, MaxAffine):
        if not f.pieces:
            raise ValueError("empty max-affine is improper (identically -inf)")
        if f.dim == 1:
            return Interval1D(None, None)
        return None  # all of the plane; no bounded descriptor needed
    raise TypeError(f"unsupported representation {type(f).__name__}")


def lsc_defect(f: Func) -> list:
    """Endpoints where an override strictly exceeds the interpolated limit.

    Grid functions are lsc by construction (isolated points), so the answer
    there is always empty.
    """
    if isinstance(f, GridFunction) or isinstance(f, MaxAffine):
        return []
    if not isinstance(f, PLConvex1D):
        raise TypeError("lsc_defect supports the function representations")
    out = []
    if f.override_left is not None:
        out.append(f.breakpoints[0])
    if f.override_right is not None:
        out.append(f.breakpoints[-1])
    return out


def pl_canonical(f: PLConvex1D) -> PLConvex1D:
    """Equivalent representation with collinear breakpoints removed.

    Interior breakpoints between equal slopes are dropped; so is an end
    breakpoint whose recession matches the edge slope.  A function affine
    on the whole line is re-anchored at zero.  Two functions are equal iff
    their canonical forms share breakpoints, values, recessions and
    overrides, which is what pl_equal compares.
    """
    if not isinstance(f, PLConvex1D):
        raise TypeError("pl_canonical takes a PLConvex1D")
    b, v = list(f.breakpoints), list(f.values)
    s = list(f.slopes())
    keep = [0]
    for i in range(1, len(b) - 1):
        if s[i - 1] != s[i]:
            keep.append(i)
    if len(b) > 1:
        keep.append(len(b) - 1)
    b = [b[i] for i in keep]
    v = [v[i] for i in keep]
    s = [(v[i + 1] - v[i]) / (b[i + 1] - b[i]) for i in range(len(b) - 1)]
    if len(b) > 1 and f.left_recession is not None and f.left_recession == s[0]:
        del b[0], v[0], s[0]
    if len(b) > 1 and f.right_recession is not None and f.right_recession == s[-1]:
        del b[-1], v[-1], s[-1]
    if (
        len(b) == 1
        and f.left_recession is not None
        and f.left_recession == f.right_recession
        and b[0] != 0
    ):
        v[0] = v[0] - f.left_recession * b[0]
        b[0] = Fraction(0)
    if tuple(b) == f.breakpoints and tuple(v) == f.values:
        return f
    return PLConvex1D._make(
        tuple(b),
        tuple(v),
        f.left_recession,
        f.right_recession,
        f.override_left,
        f.override_right,
        label=f.label,
        slopes=tuple(s),
    )


def pl_equal(f: PLConvex1D, g: PLConvex1D) -> bool:
    """Exact equality of two piecewise-linear functions as functions."""
    cf, cg = pl_canonical(f), pl_canonical(g)
    return (
        cf.breakpoints == cg.breakpoints
        and cf.values == cg.values
        and cf.left_recession == cg.left_recession
        and cf.right_recession == cg.right_recession
        and cf.override_left == cg.override_left
        and cf.override_right == cg.override_right
    )


# a prefilter round drops a sample only when it lies above the chord of its
# neighbours by this share of the predicate's terms, far above the few ulps
# the float predicate can be off by
_PEEL_MARGIN = 1e-9
_TINY = np.finfo(float).tiny
# peeling stops once a round drops less than this share of the candidates
_PEEL_STOP = 1 / 16


def _hull_candidates(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the sorted 1D samples that may lie on their lower hull,
    ascending: the throw-away step of Akl and Toussaint in numpy.

    A round tests the interior candidates of one position parity against
    the chord of their current neighbours, which that round keeps, with
    the products ``_upper_hull`` compares on the lines (x, -v), and drops
    those above it by more than ``_PEEL_MARGIN``.  A dropped sample thus
    lies strictly above the chord of two samples, on no lower hull, and
    ``_upper_hull`` still makes every decision among the candidates.  A
    concave run halves each round; the rounds alternate parity and stop
    once one drops less than ``_PEEL_STOP`` of the candidates.  An
    overflowing term drops nothing.
    """
    c = np.arange(len(x))
    parity = 1
    with np.errstate(all="ignore"):
        while len(c) >= 3:
            # k's neighbours j and i are e[:-1] and e[1:]: one gather for both
            k, e = c[parity:-1:2], c[parity - 1 :: 2]
            xe, ve = x[e], v[e]
            a = (v[k] - ve[:-1]) * (xe[1:] - xe[:-1])
            b = (ve[1:] - ve[:-1]) * (x[k] - xe[:-1])
            d = a - b
            # d > _PEEL_MARGIN * (|a| + |b|) + _TINY, in place; the tiny
            # floor covers the absolute error of an underflow
            np.add(np.abs(a, out=a), np.abs(b, out=b), out=a)
            drop = d > np.add(np.multiply(a, _PEEL_MARGIN, out=a), _TINY, out=a)
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                keep = np.ones(len(c), dtype=bool)
                np.logical_not(drop, out=keep[parity:-1:2])
                c = c[np.flatnonzero(keep)]  # a gather beats a boolean mask index
            if n_drop < _PEEL_STOP * (len(c) + n_drop):
                break
            parity = 3 - parity
    return c


def _hull_1d_exact(items) -> tuple:
    """Lower convex hull of 1D (x, value) points, exact: the breakpoints,
    the values and the slopes between them, three tuples of Fractions.

    Each axis goes through ``_scaled`` once, so the points sort and meet
    ``_upper_hull`` as ints where that rule allows; scaling an axis by a
    positive constant changes no decision.  Of points sharing an x the
    lowest stays, and ``_corners`` builds the result."""
    (xs, dx), (vs, dv) = map(_scaled, zip(*items))
    lowest = dict(sorted(zip(xs, vs), reverse=True))  # x descending, its lowest v
    return _corners(_upper_hull([(x, -v) for x, v in reversed(lowest.items())]), dx, dv)


def _float_hull(x: np.ndarray, v: np.ndarray) -> tuple:
    """The lower hull of 1D float samples, ties kept, decided on the dyadic
    ints of the prefilter's candidates (the lowest of samples sharing a
    float): the vertices' indices into x in ascending x, ``_upper_hull``'s
    lines (x, -v, k) of them over dx and dv (``_scaled``), and dx and dv."""
    order = np.argsort(x, kind="stable")
    cand = order[_hull_candidates(x[order], v[order])]
    cand = cand[np.lexsort((v[cand], x[cand]))]
    cand = cand[np.concatenate(([True], x[cand[1:]] != x[cand[:-1]]))]
    (xs, dx), (vs, dv) = _scaled(x[cand].tolist()), _scaled(v[cand].tolist())
    # by duality, (x, v) is on the lower hull iff the line of slope x and
    # intercept -v reaches the upper envelope of those lines
    hull = _upper_hull([(a, -b) for a, b in zip(xs, vs)])
    return cand[[k for _x, _c, k in hull]], hull, dx, dv


def _corners(hull: list, sx: int, sv: int) -> tuple:
    """``_hull_1d_exact``'s result from the ``_upper_hull`` lines (x, -v) of
    a lower hull over sx and sv: a vertex on the chord of its neighbours
    goes, and Fractions are built only for the rest and slopes."""
    hull[1:-1] = [q for p, q, r in zip(hull, hull[1:], hull[2:])
                  if (q[1] - p[1]) * (r[0] - q[0]) != (r[1] - q[1]) * (q[0] - p[0])]
    return (
        tuple(Fraction(x, sx) for x, _c, _ in hull),
        tuple(Fraction(-c, sv) for _x, c, _ in hull),
        tuple(Fraction((c0 - c1) * sx, (x1 - x0) * sv)
              for (x0, c0, _), (x1, c1, _) in zip(hull, hull[1:])),
    )


def _grid_hull_1d(f: GridFunction) -> tuple:
    """``_hull_1d_exact`` of a 1D grid's finite samples, through
    ``_float_hull`` when every finite point is its own float64 (float
    points always, int points below 2^53); values always are."""
    x, v = f.finite_arrays()
    kinds = set(map(type, compress(f.points, f.finite_mask().tolist())))
    if kinds <= {float} or kinds <= {float, int} and np.abs(x).max() < 2.0**53:
        return _corners(*_float_hull(x, v)[1:])
    return _hull_1d_exact(f.finite_items())


def is_convex_on_grid(f: GridFunction) -> bool:
    """True iff finite values sit within GRID_TOL of their lower convex hull
    and no listed +inf point punctures the hull of the finite points
    (domain-gap defect).  In 1D every finite sample is compared, in floats
    and at once, with the float interpolation of ``_grid_hull_1d``'s vertices."""
    if not isinstance(f, GridFunction):
        raise TypeError("is_convex_on_grid takes a GridFunction")
    finite = f.finite_mask()
    if np.count_nonzero(finite) <= 1:
        return True
    inf_pts = list(compress(f.points, (~finite).tolist()))
    if f.dim == 1:
        bps, vals, _ = _grid_hull_1d(f)
        hx, hy = np.array(bps, dtype=float), np.array(vals, dtype=float)
        x, v = f.finite_arrays()
        j = np.searchsorted(hx, x, side="right") - 1
        k = np.clip(j, 0, len(hx) - 2)
        with np.errstate(all="ignore"):
            t = (x - hx[k]) / (hx[k + 1] - hx[k])
            hv = np.where(j == len(hx) - 1, hy[-1], hy[k] + t * (hy[k + 1] - hy[k]))
        above = (j >= 0) & (x <= hx[-1]) & (v > hv + GRID_TOL)
        return not above.any() and not any(bps[0] < p < bps[-1] for p in inf_pts)
    # 2D: one small LP per point (can another-combination do strictly better?)
    from scipy.optimize import linprog

    pts, vals = f.finite_arrays()
    n = len(vals)
    for i in range(n):
        mask = np.arange(n) != i
        A_eq = np.vstack([pts[mask].T, np.ones(mask.sum())])
        b_eq = np.array([pts[i][0], pts[i][1], 1.0])
        res = linprog(vals[mask], A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if res.status == 0 and res.fun < vals[i] - GRID_TOL:
            return False
    for p in inf_pts:
        A_eq = np.vstack([pts.T, np.ones(len(pts))])
        b_eq = np.array([p[0], p[1], 1.0])
        res = linprog(np.zeros(len(pts)), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if res.status == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# instance files (JSON)
# ---------------------------------------------------------------------------


def _fmt_rec(r):
    return "stop" if r is None else format_scalar(r)


def _parse_rec(r):
    if r == "stop" or r is None:
        return None
    return parse_finite_exact(r)


def dump_instance(obj) -> dict:
    if isinstance(obj, PLConvex1D):
        d = {
            "kind": "plconvex1d",
            "breakpoints": [format_scalar(b) for b in obj.breakpoints],
            "values": [format_scalar(v) for v in obj.values],
            "left_recession": _fmt_rec(obj.left_recession),
            "right_recession": _fmt_rec(obj.right_recession),
        }
        if obj.override_left is not None:
            d["override_left"] = format_scalar(obj.override_left)
        if obj.override_right is not None:
            d["override_right"] = format_scalar(obj.override_right)
    elif isinstance(obj, GridFunction):
        d = {
            "kind": "grid",
            "dim": obj.dim,
            "points": [list(p) if obj.dim == 2 else p for p in obj.points],
            "values": [v if v < math.inf else "inf" for v in obj.value_array.tolist()],
        }
    elif isinstance(obj, SampledSet):
        d = {
            "kind": "indicator",
            "dim": obj.dim,
            "points": [list(p) if obj.dim == 2 else p for p in obj.points],
        }
    elif isinstance(obj, Interval1D):
        d = {"kind": "interval"}
        if obj.lo is not None:
            d["lo"] = format_scalar(obj.lo)
        if obj.hi is not None:
            d["hi"] = format_scalar(obj.hi)
        if obj.lo_open:
            d["lo_open"] = True
        if obj.hi_open:
            d["hi_open"] = True
    elif isinstance(obj, MaxAffine):
        d = {
            "kind": "maxaffine",
            "dim": obj.dim,
            "pieces": [
                {
                    "anchor": list(a) if obj.dim == 2 else a,
                    "slope": list(s) if obj.dim == 2 else s,
                    "level": format_scalar(lv) if isinstance(lv, Fraction) else lv,
                }
                for a, s, lv in obj.pieces
            ],
        }
    elif isinstance(obj, OperatorGraph):
        # scalars keep their spelling: exact pairs round-trip exactly and
        # float pairs by repr
        def enc(p):
            return format_scalar(p) if obj.dim == 1 else [format_scalar(c) for c in p]

        d = {
            "kind": "opgraph",
            "dim": obj.dim,
            "pairs": [[enc(x), enc(y)] for x, y in obj.pairs],
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    # an interval carries no label
    if getattr(obj, "label", None):
        d["label"] = obj.label
    return d


def _parse_level(lv):
    """A maxaffine level: JSON numbers pass through, strings parse exactly
    ("1/2" is Fraction(1, 2)) and must be finite."""
    return parse_scalar(lv, exact=True).finite() if isinstance(lv, str) else lv


def _check_counts(d: dict, *keys) -> None:
    """Refuse an instance whose listed ``keys`` hold anything but a list
    (a string would be read character by character), or more than
    MAX_GRID_POINTS entries, before any of its scalars is parsed.  A
    missing key is left to the reader's KeyError."""
    for key in keys:
        if key not in d:
            continue
        seq = d[key]
        if not isinstance(seq, (list, tuple)):
            raise TypeError(
                f"{d.get('kind')} instance key {key!r} holds a "
                f"{type(seq).__name__}, not a list"
            )
        if len(seq) > MAX_GRID_POINTS:
            raise ValueError(
                f"{d.get('kind')} instance lists {len(seq)} {key}, "
                f"above the limit of {MAX_GRID_POINTS}"
            )


def _tuples(d: dict, key: str, seq) -> tuple:
    """The entries of ``seq``, read from instance key ``key``, as tuples.
    Each entry must be a list: a string would be read character by
    character, "12" as the point (1, 2)."""
    if not set(map(type, seq)) <= {list, tuple}:
        for e in seq:
            if not isinstance(e, (list, tuple)):
                raise TypeError(
                    f"{d.get('kind')} instance key {key!r} holds a "
                    f"{type(e).__name__} entry, not a list"
                )
    return tuple(map(tuple, seq))


def _points(d: dict):
    """(points, every coordinate a float) of a grid or indicator instance
    ``d``, 2D entries read by ``_tuples``.  A coordinate spelled as a string
    is refused: float() would read "12" as 12 but refuse "1/2"."""
    dim = d["dim"]
    pts = _tuples(d, "points", d["points"]) if dim == 2 else d["points"]
    kinds = list(map(type, (c for p in pts for c in p) if dim == 2 else pts))
    floats = kinds.count(float) == len(kinds)
    # JSON numbers pass the type counts; only other lists are walked point by point
    for p in () if floats or len(kinds) - kinds.count(float) == kinds.count(int) else pts:
        if str in map(type, p if isinstance(p, (list, tuple)) else (p,)):
            kind = d.get("kind")
            raise TypeError(f"{kind} instance key 'points' holds a str coordinate, not a number")
    return pts, floats


def _grid_values(vals) -> np.ndarray:
    """A grid's values as float64.  JSON numbers convert in one numpy pass;
    only the other cells (``dump_instance`` writes +inf as "inf") go
    through ``parse_scalar``, in list order."""
    kinds = list(map(type, vals))
    # a type compares fast only with itself: count floats, then seek odd types
    odd_types = set(kinds) - {float, int} if kinds.count(float) != len(kinds) else ()
    if odd_types:
        vals, odd = list(vals), []
        # index scans per odd type, sorted so that parse_scalar names the first bad cell
        for t in odd_types:
            i = -1
            with contextlib.suppress(ValueError):  # no t after i
                while True:
                    i = kinds.index(t, i + 1)
                    odd.append(i)
        for i in sorted(odd):
            vals[i] = float(parse_scalar(vals[i], exact=False))
    return _float_array(vals, "value")


def load_instance(src):
    """Accepts a dict or a path to a JSON file; a file whose top level is
    not a JSON object raises TypeError."""
    if isinstance(src, dict):
        d = src
    elif isinstance(src, (str, bytes)):
        with open(src, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise TypeError(f"instance file {src!r} does not hold a JSON object")
    else:
        raise TypeError("load_instance takes a dict or a path")
    kind = d.get("kind")
    label = d.get("label")
    if kind == "plconvex1d":
        _check_counts(d, "breakpoints", "values")
        ovl = d.get("override_left")
        ovr = d.get("override_right")
        return PLConvex1D(
            tuple(map(parse_finite_exact, d["breakpoints"])),
            tuple(map(parse_finite_exact, d["values"])),
            _parse_rec(d.get("left_recession", "stop")),
            _parse_rec(d.get("right_recession", "stop")),
            None if ovl is None else parse_scalar(ovl, exact=True),
            None if ovr is None else parse_scalar(ovr, exact=True),
            label=label,
        )
    if kind == "grid":
        _check_counts(d, "points", "values")
        vals = _grid_values(d["values"])
        pts, floats = _points(d)
        # float coordinates go in as one array, which GridFunction reads without a type scan
        pts = _float_array(pts, "point") if floats else pts
        return GridFunction(d["dim"], pts, vals, label=label)
    if kind == "indicator":
        _check_counts(d, "points")
        return SampledSet(d["dim"], _points(d)[0], label=label)
    if kind == "interval":
        lo, hi = d.get("lo"), d.get("hi")
        return Interval1D(
            None if lo is None else parse_scalar(lo, exact=True).finite(),
            None if hi is None else parse_scalar(hi, exact=True).finite(),
            bool(d.get("lo_open", False)),
            bool(d.get("hi_open", False)),
        )
    if kind == "maxaffine":
        _check_counts(d, "pieces")

        def piece(pc):
            a, s = pc["anchor"], pc["slope"]
            if d["dim"] == 2:
                a, s = _tuples(d, "anchor", [a])[0], _tuples(d, "slope", [s])[0]
            lv = _parse_level(pc["level"])
            # JSON's Infinity and NaN load as floats; the constructor keeps
            # infinite levels, which the n-cup DP builds
            for key, v in (("anchor", a), ("slope", s), ("level", lv)):
                for c in v if isinstance(v, (list, tuple)) else (v,):
                    if c != c or c in (math.inf, -math.inf):
                        raise ValueError(f"maxaffine instance key {key!r} holds {c!r}, "
                                         "not a finite number")
            return a, s, lv

        return MaxAffine(d["dim"], tuple(map(piece, d["pieces"])), label=label)
    if kind == "opgraph":
        _check_counts(d, "pairs")
        dim = int(d["dim"])

        def dec(e):
            if dim == 1:
                return parse_scalar(e).finite()
            return tuple(parse_scalar(c).finite() for c in e)

        pairs = _tuples(d, "pairs", d["pairs"])
        if dim == 2:
            _tuples(d, "pairs", [e for pair in pairs for e in pair])
        return OperatorGraph(dim, tuple((dec(x), dec(y)) for x, y in pairs), label=label)
    raise ValueError(f"unknown instance kind {kind!r}")
