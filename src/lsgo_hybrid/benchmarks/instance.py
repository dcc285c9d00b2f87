"""Benchmark instance generation and evaluation.

Fifteen function ids cover five structural families:

  F1-F3    fully separable       one unrotated block over all coordinates
  F4-F7    partially separable   rotated blocks plus a separable tail
  F8-F11   partially separable   rotated blocks covering all coordinates
  F12-F14  overlapping chains    adjacent blocks share coordinates
  F15      fully non-separable   one rotated block over all coordinates

Instances are self-generated from (function_id, dimension, seed) alone and
are bit-identical across calls with the same triple. Every instance knows a
preimage of its optimum, and evaluating there gives a value <= 1e-6.

Evaluation has one x -> z path, and it evaluates rows in groups of G.
`_prepare` lays every block's coordinates end to end in one buffer
(subcomponents first, then the tail; shared coordinates of the overlapping
chains appear once per block) and precomputes the gather index, shift,
skew slopes and conditioning weights in that layout. One group of at most G
rows is gathered and shifted into a C-ordered buffer of one row per
candidate; each rotated block is rotated as R @ Y.T, where Y is that
block's columns of a G-row buffer whose unused rows are zero; the
oscillation and skew maps run as one log-space pass over the whole buffer;
and the weighted base function of each block is a row-wise reduction. For
the elliptic base the value is a single row sum of z*z times one vector
that folds each block's weight, its elliptic weights and its squared
conditioning weights. `evaluate(x)` is
the one-row case, so a lone evaluation gives the same bits as that row of
any batch: the rotation product always has G columns, and a column of it
depends neither on its position nor on the other columns (a test checks
this for every rotated block size, as a BLAS could break it; Y @ R.T is
not invariant at one BLAS thread), and the maps and row reductions treat
each row alone. Every step after the gather writes into the call's own
buffers, and nothing is stored on the instance between calls.
"""

from __future__ import annotations

import base64
import binascii
import copy
import json
from dataclasses import dataclass

import numpy as np

from .functions import _DISPATCH, BOUNDS, elliptic_weights
from .transforms import (
    _gradient,
    conditioning_weights,
    oscillate_skew_inplace,
    random_orthogonal,
)

_DESCRIPTOR_FORMAT = "lsgo-hybrid-instance/1"

# Rows per evaluation group; every rotation product has exactly G columns.
G = 16

# Canonical block-size proportions; literal sizes at dimension 1000 for the
# tailed family (550 non-separable coordinates plus a 450-coordinate tail).
_CANON = (50, 50, 25, 25, 100, 100, 200)
_MIN_SIZE = 5
_MIN_DIMENSION = 10

# Fraction of the dimension covered by the non-separable blocks when a
# separable tail is present (550 of 1000).
_TAIL_SPLIT = 0.55


@dataclass(frozen=True)
class _FunctionSpec:
    base: str
    family: str
    rotated: bool
    irregularity: bool
    asymmetry_beta: float
    conditioning_alpha: float


def _spec(base, family, rotated=True, irregularity=True, beta=0.2, alpha=10.0):
    return _FunctionSpec(base, family, rotated, irregularity, beta, alpha)


# The conforming Rosenbrock chain stays unrotated with identity conditioning
# and the conflicting chain drops the irregularity/asymmetry maps: both
# choices keep an exact, consistent optimum preimage across the shared
# coordinates (see each family's construction below).
_FUNCTIONS = {
    "F1": _spec("elliptic", "separable", rotated=False),
    "F2": _spec("rastrigin", "separable", rotated=False),
    "F3": _spec("ackley", "separable", rotated=False),
    "F4": _spec("elliptic", "partial_tail"),
    "F5": _spec("rastrigin", "partial_tail"),
    "F6": _spec("ackley", "partial_tail"),
    "F7": _spec("schwefel_12", "partial_tail"),
    "F8": _spec("elliptic", "partial"),
    "F9": _spec("rastrigin", "partial"),
    "F10": _spec("ackley", "partial"),
    "F11": _spec("schwefel_12", "partial"),
    "F12": _spec("rosenbrock", "overlap_conforming", rotated=False, alpha=1.0),
    "F13": _spec("schwefel_12", "overlap_conforming"),
    "F14": _spec("schwefel_12", "overlap_conflicting", irregularity=False, beta=0.0),
    "F15": _spec("schwefel_12", "nonseparable"),
}

FUNCTION_IDS = tuple(_FUNCTIONS)
_FID_INDEX = {fid: i + 1 for i, fid in enumerate(FUNCTION_IDS)}


# -- layout ------------------------------------------------------------------


def _largest_remainder(total: int, weights) -> np.ndarray:
    """Integer allocation of `total` proportional to weights, exact sum."""
    w = np.asarray(weights, dtype=float)
    quota = total * w / w.sum()
    sizes = np.floor(quota).astype(int)
    leftover = total - int(sizes.sum())
    order = np.argsort(-(quota - sizes), kind="stable")
    sizes[order[:leftover]] += 1
    return sizes


def _enforce_min(sizes: np.ndarray, min_size: int) -> np.ndarray:
    """Raise undersized blocks to min_size, taking the slack from the largest."""
    sizes = sizes.copy()
    for i in range(sizes.size):
        while sizes[i] < min_size:
            j = int(np.argmax(sizes))
            move = min(min_size - sizes[i], sizes[j] - min_size)
            if move <= 0:
                raise ValueError("dimension too small for the block layout")
            sizes[j] -= move
            sizes[i] += move
    return sizes


def _block_sizes(span: int, n: int) -> np.ndarray:
    return _enforce_min(_largest_remainder(span, _CANON[:n]), _MIN_SIZE)


def _layout(family: str, d: int):
    """Return (list of (start, size), tail (start, size) or None, overlap)."""
    if family in ("separable", "nonseparable"):
        return [(0, d)], None, 0
    if family == "partial_tail":
        span = int(_TAIL_SPLIT * d + 0.5)
        n = min(len(_CANON), span // _MIN_SIZE)
        if n < 1:
            raise ValueError(f"dimension {d} leaves no room for a rotated block")
        sizes = _block_sizes(span, n)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        tail = (span, d - span) if d > span else None
        return list(zip(starts.tolist(), sizes.tolist())), tail, 0
    if family == "partial":
        n = min(len(_CANON), d // _MIN_SIZE)
        sizes = _block_sizes(d, n)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return list(zip(starts.tolist(), sizes.tolist())), None, 0
    if family in ("overlap_conforming", "overlap_conflicting"):
        n = min(len(_CANON), max(2, d // _MIN_SIZE))
        overlap = max(1, (d // n) // 10)
        while n > 2 and _MIN_SIZE * n > d + (n - 1) * overlap:
            n -= 1
            overlap = max(1, (d // n) // 10)
        sizes = _block_sizes(d + (n - 1) * overlap, n)
        if overlap >= int(sizes.min()):
            raise ValueError("dimension too small for overlapping blocks")
        subs = []
        start = 0
        for s in sizes.tolist():
            subs.append((start, s))
            start += s - overlap
        if subs[-1][0] + subs[-1][1] != d:
            raise ValueError("overlap layout failed to close on the dimension")
        return subs, None, overlap
    raise ValueError(f"unknown family {family!r}")


def _conflict_least_squares(subcomponents, dimension, alpha) -> np.ndarray:
    """Exact minimiser of the conflicting chain in permuted coordinates.

    With the pointwise maps off, each block j contributes
    w_j * ||L C R (y_j - o_j)||^2, a convex quadratic, so the global
    minimum of the sum is a stacked linear least-squares problem.
    """
    rows = sum(s.size for s in subcomponents)
    m = np.zeros((rows, dimension))
    t = np.zeros(rows)
    r0 = 0
    for sub in subcomponents:
        a = np.tril(np.ones((sub.size, sub.size)))  # prefix sums
        if alpha != 1.0:
            a = a * conditioning_weights(sub.size, alpha)[np.newaxis, :]
        if sub.rotation is not None:
            a = a @ sub.rotation
        a = a * np.sqrt(sub.weight)
        m[r0 : r0 + sub.size, sub.start : sub.stop] = a
        t[r0 : r0 + sub.size] = a @ sub.local_shift
        r0 += sub.size
    y, *_ = np.linalg.lstsq(m, t, rcond=None)
    return y


# -- instance ----------------------------------------------------------------


@dataclass
class Subcomponent:
    """One block of the decision vector with its own weight and transforms."""

    start: int
    size: int
    weight: float
    rotation: np.ndarray | None = None
    local_shift: np.ndarray | None = None

    @property
    def stop(self) -> int:
        return self.start + self.size


class BenchmarkInstance:
    """A concrete, seeded objective function with box bounds.

    Use :func:`make_instance` to build one. `evaluate` counts every call in
    `eval_count`; callers are trusted to stay inside `bounds`.
    """

    def __init__(self, function_id, dimension, seed, shift, permutation,
                 subcomponents, tail, solution=None):
        fspec = _FUNCTIONS[function_id]
        self.function_id = function_id
        self.dimension = int(dimension)
        self.seed = int(seed)
        self.base = fspec.base
        self.family = fspec.family
        half = BOUNDS[fspec.base]
        self.bounds = (-half, half)
        self.shift = shift
        self.permutation = np.asarray(permutation, dtype=np.intp)
        self.subcomponents = subcomponents
        self.tail = tail
        self.irregularity = fspec.irregularity
        self.asymmetry_beta = fspec.asymmetry_beta
        self.conditioning_alpha = fspec.conditioning_alpha
        self.eval_count = 0
        self._offset = 0.0
        self._prepare()
        self._optimum = self._solve_optimum(solution)

    # construction helpers

    def _prepare(self):
        """Precompute the fused x -> z layout; see the module docstring.

        Everything is stored as plain arrays and tuples on the instance:
        nothing here may refer back to `self`, or discarded instances would
        wait for the cyclic garbage collector.
        """
        parts = list(self.subcomponents) + ([self.tail] if self.tail else [])
        ends = np.cumsum([p.size for p in parts]).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        self._gather = np.concatenate([self.permutation[p.start : p.stop] for p in parts])
        # the conflicting chain shifts each block, every other family the
        # whole vector (from_descriptor holds descriptors to the same rule)
        if self.shift is None:
            self._shift = np.concatenate([p.local_shift for p in parts])
        else:
            self._shift = self.shift[self._gather]
        self._rotations = None
        if any(p.rotation is not None for p in parts):
            self._rotations = [(a, b, p.rotation) for (a, b), p in zip(spans, parts)]
        # the function table pairs the two maps: every id with the oscillation
        # map has a skew slope, and the one without (F14) has neither
        self._slope = None
        if self.irregularity:
            self._slope = self.asymmetry_beta * np.concatenate(
                [_gradient(p.size) for p in parts])
        # elliptic ids: block weight x elliptic weights x squared conditioning
        # weights in one vector, so the value is one weighted row sum of z*z;
        # other bases keep (start, stop, weight, base function) per block
        alpha = self.conditioning_alpha
        self._cond = None
        self._row_weights = None
        self._terms = None
        if self.base == "elliptic":
            self._row_weights = np.concatenate([
                p.weight * elliptic_weights(p.size)
                * conditioning_weights(p.size, alpha) ** 2
                for p in parts
            ])
        else:
            if alpha != 1.0:
                self._cond = np.concatenate(
                    [conditioning_weights(p.size, alpha) for p in parts])
            fn = _DISPATCH[self.base]
            self._terms = [(a, b, p.weight, fn) for (a, b), p in zip(spans, parts)]

    def _solve_optimum(self, solution=None) -> np.ndarray:
        """Optimum preimage; `solution` is the conflicting chain's
        `_conflict_least_squares` result if the caller already has it."""
        d = self.dimension
        if self.family == "overlap_conflicting":
            y = solution
            if y is None:
                y = _conflict_least_squares(self.subcomponents, d,
                                            self.conditioning_alpha)
        else:
            # zero is a fixed point of every map, so the preimage of the
            # all-zeros target is the shift itself; the Rosenbrock chain's
            # all-ones target is likewise fixed by the oscillation and skew
            # maps at every index, giving shift + 1 on every coordinate.
            target = 1.0 if self.base == "rosenbrock" else 0.0
            y = np.full(d, target)
        x = np.empty(d)
        x[self.permutation] = y
        if self.shift is not None:
            x = x + self.shift
        lo, hi = self.bounds
        if (x < lo).any() or (x > hi).any():
            raise ValueError("optimum preimage escaped the bounds")
        if self.family == "overlap_conflicting":
            self._offset = 0.0
            self._offset = float(self._evaluate_group(x[np.newaxis])[0])
        return x

    # evaluation

    def _evaluate_group(self, x: np.ndarray) -> np.ndarray:
        """Values of the rows of x, an (m, dimension) array with m <= G."""
        m = len(x)
        if self._rotations is None:
            z = np.take(x, self._gather, axis=1)
        else:
            padded = np.zeros((G, self._gather.size))
            z = padded[:m]
            np.take(x, self._gather, axis=1, out=z)
        z -= self._shift
        if self._rotations is not None:
            for a, b, rotation in self._rotations:
                if rotation is not None:
                    z[:, a:b] = (rotation @ padded[:, a:b].T)[:, :m].T
        if self._slope is not None:
            oscillate_skew_inplace(z, self._slope)
        if self._row_weights is not None:
            z *= z
            z *= self._row_weights
            total = z.sum(axis=1)
        else:
            if self._cond is not None:
                z *= self._cond
            total = np.zeros(m)
            for a, b, weight, fn in self._terms:
                total += weight * fn(z[:, a:b])
        total -= self._offset
        return total

    def evaluate_batch(self, x) -> np.ndarray:
        """Objective values of the rows of x, an (m, dimension) array, in
        groups of G rows; increments eval_count by m."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dimension:
            raise ValueError(
                f"expected an (m, {self.dimension}) array, got shape {x.shape}"
            )
        self.eval_count += len(x)
        out = np.empty(len(x))
        for i in range(0, len(x), G):
            out[i : i + G] = self._evaluate_group(x[i : i + G])
        return out

    def evaluate(self, x) -> float:
        """Objective value at x; increments eval_count by one."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"expected a vector of length {self.dimension}, got shape {x.shape}"
            )
        return float(self.evaluate_batch(x[np.newaxis])[0])

    __call__ = evaluate

    @property
    def optimum_preimage(self) -> np.ndarray:
        """A point where the instance attains (up to 1e-6) its minimum."""
        return self._optimum.copy()

    def fresh_copy(self) -> "BenchmarkInstance":
        """Independent copy with its own zeroed evaluation counter."""
        dup = copy.deepcopy(self)
        dup.eval_count = 0
        return dup

    # serialisation

    def to_descriptor(self) -> dict:
        subs = []
        for s in self.subcomponents:
            subs.append({
                "start": s.start,
                "size": s.size,
                "rotated": s.rotation is not None,
                "weight": s.weight,
                "shift": _encode(s.local_shift) if s.local_shift is not None else None,
            })
        return {
            "format": _DESCRIPTOR_FORMAT,
            "function_id": self.function_id,
            "dimension": self.dimension,
            "seed": self.seed,
            "bounds": list(self.bounds),
            "base": self.base,
            "family": self.family,
            "irregularity": self.irregularity,
            "asymmetry_beta": self.asymmetry_beta,
            "conditioning_alpha": self.conditioning_alpha,
            "permutation": _encode(self.permutation.astype(np.int64)),
            "shift": _encode(self.shift) if self.shift is not None else None,
            "subcomponents": subs,
            "tail": (
                {"start": self.tail.start, "size": self.tail.size}
                if self.tail is not None
                else None
            ),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_descriptor(), **kwargs)


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a).tobytes()).decode("ascii")


def _decode(s: str, dtype, field: str) -> np.ndarray:
    try:
        raw = base64.b64decode(s.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError):
        raise ValueError(f"descriptor {field} is not valid base64") from None
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise ValueError(
            f"descriptor {field} has {len(raw)} bytes, "
            f"not a whole number of {itemsize}-byte values"
        )
    return np.frombuffer(raw, dtype=dtype).copy()


def _decode_shift(s: str, field: str) -> np.ndarray:
    shift = _decode(s, np.float64, field)
    if not np.isfinite(shift).all():
        raise ValueError(f"descriptor {field} has non-finite values")
    return shift


def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"descriptor {field} must be true or false, got {value!r}")
    return value


def _seed_u64(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _streams(function_id: str, dimension: int, seed: int):
    root = np.random.SeedSequence(
        [_seed_u64(seed), _FID_INDEX[function_id], int(dimension)]
    )
    main_ss, rot_ss = root.spawn(2)
    return np.random.default_rng(main_ss), rot_ss


def _rotations_for(subs, rot_ss):
    rng = np.random.default_rng(rot_ss)
    for sub in subs:
        sub.rotation = random_orthogonal(sub.size, rng)


def make_instance(function_id: str, dimension: int, seed: int) -> BenchmarkInstance:
    """Generate the benchmark instance for (function_id, dimension, seed).

    Draw order from the seeded stream is fixed: permutation, shift(s), block
    weights; rotations come from a separate child stream so descriptors can
    regenerate them without replaying the rest.
    """
    if function_id not in _FUNCTIONS:
        raise ValueError(
            f"unknown function id {function_id!r}; expected F1..F{len(_FUNCTIONS)}"
        )
    dimension = int(dimension)
    if dimension < _MIN_DIMENSION:
        raise ValueError(f"dimension must be at least {_MIN_DIMENSION}")
    fspec = _FUNCTIONS[function_id]
    sub_layout, tail_layout, _ = _layout(fspec.family, dimension)
    rng, rot_ss = _streams(function_id, dimension, seed)

    perm = rng.permutation(dimension)
    half = BOUNDS[fspec.base]
    conflicting = fspec.family == "overlap_conflicting"
    if conflicting:
        # per-block shifts in the central half of the box; their
        # disagreements on shared coordinates are the point of this family
        shift = None
        local_shifts = [
            (rng.random(size) - 0.5) * half for (_start, size) in sub_layout
        ]
    else:
        # central 80% keeps shift + 1 (Rosenbrock target) strictly inside
        shift = (rng.random(dimension) - 0.5) * (1.6 * half)
        local_shifts = [None] * len(sub_layout)

    if len(sub_layout) > 1:
        weights = 10.0 ** rng.standard_normal(len(sub_layout))
    else:
        weights = np.ones(1)

    subs = [
        Subcomponent(start, size, float(w), None, ls)
        for (start, size), w, ls in zip(sub_layout, weights, local_shifts)
    ]
    if fspec.rotated:
        _rotations_for(subs, rot_ss)
    solution = None
    if conflicting:
        # conflicting targets can push the compromise point outside the box;
        # the solution is linear in the local shifts, so one common shrink
        # factor pins the exact optimum inside the central band; shrinking
        # here, not in the constructor, lets descriptors rebuild these shifts.
        # Without a shrink the constructor takes this solution as it is; after
        # one it solves again, as rescaling y would not give the bits of a
        # solve on the rescaled shifts that a descriptor rebuild makes.
        solution = _conflict_least_squares(subs, dimension, fspec.conditioning_alpha)
        cap = 0.8 * half
        peak = float(np.max(np.abs(solution)))
        if peak > cap:
            for sub in subs:
                sub.local_shift = sub.local_shift * (cap / peak)
            solution = None
    tail = None
    if tail_layout is not None:
        tail = Subcomponent(tail_layout[0], tail_layout[1], 1.0)

    return BenchmarkInstance(function_id, dimension, seed, shift, perm, subs, tail,
                             solution)


def _check_layout(family, dimension, shift, subs, tail):
    """Reject a descriptor whose shifts or blocks do not fit its dimension, or
    whose shifts are not where generation puts them: on every block of the
    conflicting chain, and as one global shift for every other family."""
    conflicting = family == "overlap_conflicting"
    if conflicting and shift is not None:
        raise ValueError("descriptor shift must be null for a conflicting chain, "
                         "whose blocks carry their own shifts")
    if not conflicting and shift is None:
        raise ValueError(f"descriptor shift is null, but the {family} family "
                         "takes one global shift")
    if shift is not None and shift.size != dimension:
        raise ValueError(
            f"descriptor shift has {shift.size} values, dimension is {dimension}"
        )
    parts = subs + ([tail] if tail is not None else [])
    coverage = np.zeros(dimension, dtype=int)
    for p in parts:
        if p.size < 1 or p.start < 0 or p.stop > dimension:
            raise ValueError(
                f"descriptor block [{p.start}, {p.stop}) leaves [0, {dimension})"
            )
        if p.local_shift is None and conflicting:
            raise ValueError(
                f"descriptor block [{p.start}, {p.stop}) of a conflicting chain "
                "has no local shift"
            )
        if p.local_shift is not None and not conflicting:
            raise ValueError(
                f"descriptor block [{p.start}, {p.stop}) has a local shift, but "
                f"the {family} family takes only the global shift"
            )
        if p.local_shift is not None and p.local_shift.size != p.size:
            raise ValueError(
                f"descriptor block [{p.start}, {p.stop}) has a local shift of "
                f"{p.local_shift.size} values for {p.size} coordinates"
            )
        coverage[p.start : p.stop] += 1
    if not family.startswith("overlap") and not (coverage == 1).all():
        i = int(np.argmax(coverage != 1))
        raise ValueError(
            f"descriptor blocks of the {family} family must cover every "
            f"coordinate exactly once; coordinate {i} is covered {coverage[i]} times"
        )


def _expect(field: str, recorded, table, function_id: str):
    if recorded != table:
        raise ValueError(
            f"descriptor {field} is {recorded!r}, but {function_id} has {table!r}"
        )


def from_descriptor(desc: dict) -> BenchmarkInstance:
    """Rebuild an instance from its descriptor dict.

    Shift, permutation, layout and weights come from the descriptor itself;
    rotations are regenerated from the recorded seed. The recorded bounds,
    base, family, scalar-map constants and rotation flags must equal the
    function table's, shifts must be finite and sit where generation puts
    them (see `_check_layout`), and block weights must be finite and
    positive.
    """
    if desc.get("format") != _DESCRIPTOR_FORMAT:
        raise ValueError(f"unrecognised descriptor format {desc.get('format')!r}")
    function_id = desc["function_id"]
    if function_id not in _FUNCTIONS:
        raise ValueError(f"unknown function id {function_id!r}")
    fspec = _FUNCTIONS[function_id]
    _flag(desc["irregularity"], "irregularity")
    half = BOUNDS[fspec.base]
    for field, table in (("bounds", [-half, half]), ("base", fspec.base),
                         ("family", fspec.family), ("irregularity", fspec.irregularity),
                         ("asymmetry_beta", fspec.asymmetry_beta),
                         ("conditioning_alpha", fspec.conditioning_alpha)):
        _expect(field, desc[field], table, function_id)
    dimension = int(desc["dimension"])
    perm = _decode(desc["permutation"], np.int64, "permutation").astype(np.intp)
    if sorted(perm.tolist()) != list(range(dimension)):
        raise ValueError("descriptor permutation is not a bijection")
    shift = (_decode_shift(desc["shift"], "shift")
             if desc["shift"] is not None else None)
    subs = []
    for k, entry in enumerate(desc["subcomponents"]):
        local = (
            _decode_shift(entry["shift"], f"subcomponent {k} shift")
            if entry.get("shift") is not None
            else None
        )
        field = f"subcomponent {k} rotated"
        _expect(field, _flag(entry["rotated"], field), fspec.rotated, function_id)
        weight = float(entry["weight"])
        if not 0.0 < weight < np.inf:
            raise ValueError(f"descriptor subcomponent {k} weight must be finite "
                             f"and positive, got {weight}")
        subs.append(
            Subcomponent(int(entry["start"]), int(entry["size"]), weight, None, local)
        )
    tail = None
    if desc.get("tail") is not None:
        tail = Subcomponent(int(desc["tail"]["start"]), int(desc["tail"]["size"]), 1.0)
    _check_layout(fspec.family, dimension, shift, subs, tail)
    if fspec.rotated:
        _, rot_ss = _streams(function_id, dimension, int(desc["seed"]))
        _rotations_for(subs, rot_ss)
    return BenchmarkInstance(function_id, dimension, int(desc["seed"]), shift, perm,
                             subs, tail)


def from_json(text: str) -> BenchmarkInstance:
    return from_descriptor(json.loads(text))
