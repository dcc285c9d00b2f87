"""Benchmark instance generation and evaluation.

Fifteen function ids cover five structural families:

  F1-F3    fully separable       one unrotated block over all coordinates
  F4-F7    partially separable   rotated blocks plus a separable tail
  F8-F11   partially separable   rotated blocks covering all coordinates
  F12-F14  overlapping chains    adjacent blocks share coordinates
  F15      fully non-separable   one rotated block over all coordinates

Instances are self-generated from (function_id, dimension, seed) alone and
are bit-identical across calls with the same triple at one BLAS thread
count: OpenBLAS's QR and products of large rotated blocks (F8, F13 and F15
at dimension 1000, not F4) round differently at another thread count (see
item 1 of ROADMAP.md). `digest()` hashes those bits, and `from_descriptor`
refuses a descriptor with another digest. Every instance knows a preimage
of its optimum, and evaluating there gives a value <= 1e-6.

Evaluation has one x -> z path, and it evaluates rows in groups of G.
`_prepare` lays every block's coordinates end to end in one buffer
(subcomponents first, then the tail; shared coordinates of the overlapping
chains appear once per block) and precomputes the gather index, shift,
skew slopes and conditioning weights in that layout. Every id gathers and
shifts one group of at most G rows into the first rows of a zeroed C-ordered
G-row buffer, one row per candidate; each rotated block is rotated by one
matrix product over Y, that block's columns of the buffer; the
oscillation and skew maps run as one log-space pass over the whole buffer;
and the weighted base function of each block is a row-wise reduction. For
the elliptic base the value is a single row sum of z*z times one vector
that folds each block's weight, its elliptic weights and its squared
conditioning weights. `evaluate(x)` is
the one-row case, so a lone evaluation gives the same bits as that row of
any batch.

The rotation product has two forms. Most blocks take the column form
R @ Y.T over all G rows of the buffer, and a column of that product depends
neither on its position nor on the other columns. A block of at least
`_ROW_MAJOR_ROWS` (1000) rows whose row count is a multiple of 8 (at
dimension 1000, F15's one block) takes the row form Y[:w] @ R.T instead,
w being the group's row count rounded up to a multiple of 4: OpenBLAS then
packs R as the B operand, which is cheaper once R no longer fits in L2.
Each row of it has the bits of its column of R @ Y.T at any position and
width. At one BLAS thread that holds only when the row count is a multiple
of 8: at 1004 rows a row's bits depend on its position. Tests check all of
this for every rotated block size the layouts make and for 1004, 1008 and
2000 rows, as a BLAS could break it.
The maps and row reductions treat each row alone. Every step after the
gather writes into the call's own buffers, and nothing is stored on the
instance between calls.
"""

from __future__ import annotations

import copy
import hashlib
import json
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .functions import _DISPATCH, BOUNDS, elliptic_weights
from .transforms import (
    _gradient,
    conditioning_weights,
    oscillate_skew_inplace,
    random_orthogonal,
)

_DESCRIPTOR_FORMAT = "lsgo-hybrid-instance/2"

# Rows per evaluation group; a column-form rotation product has G columns.
G = 16

# Rotations of at least this many rows, whose row count is a multiple of 8,
# are applied row-major, as Y[:w] @ R.T with w the group's row count rounded
# up to a multiple of 4: OpenBLAS then packs R as the B operand, which is
# cheaper once R no longer fits in L2 (from about 1000 rows at 8 and 16
# columns). A row of that product has the bits of its column of R @ Y.T; at
# one BLAS thread it depends on its position unless the row count is a
# multiple of 8 (1004 rows fail).
_ROW_MAJOR_ROWS = 1000


def _row_major(n: int) -> bool:
    """Whether an n-row rotation is applied as Y @ R.T rather than R @ Y.T."""
    return n >= _ROW_MAJOR_ROWS and n % 8 == 0


# Canonical block-size proportions; literal sizes at dimension 1000 for the
# tailed family (550 non-separable coordinates plus a 450-coordinate tail).
_CANON = (50, 50, 25, 25, 100, 100, 200)
_MIN_SIZE = 5
MIN_DIMENSION = 10


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


# -- layout ------------------------------------------------------------------


def _largest_remainder(total: int, weights) -> list[int]:
    """Integer allocation of `total` proportional to the integer weights,
    exact sum: the largest remainders take the leftover, ties the earlier."""
    parts = [divmod(total * w, sum(weights)) for w in weights]
    sizes = [q for q, _r in parts]
    order = sorted(range(len(parts)), key=lambda i: -parts[i][1])
    for i in order[:total - sum(sizes)]:
        sizes[i] += 1
    return sizes


def _enforce_min(sizes: list[int], min_size: int) -> list[int]:
    """Raise undersized blocks to min_size, taking the slack from the largest.
    The caller keeps len(sizes) * min_size <= sum(sizes), so there is slack."""
    for i in range(len(sizes)):
        while sizes[i] < min_size:
            j = sizes.index(max(sizes))
            move = min(min_size - sizes[i], sizes[j] - min_size)
            sizes[j] -= move
            sizes[i] += move
    return sizes


def _block_sizes(span: int, n: int) -> list[int]:
    return _enforce_min(_largest_remainder(span, _CANON[:n]), _MIN_SIZE)


def _layout(family: str, d: int):
    """Return (list of (start, size), tail (start, size) or None). The one
    judge of a dimension: make_instance, from_descriptor and `run` ask it.
    Its sizes are exact integers, so every layout it returns ends at d."""
    if d < MIN_DIMENSION:
        raise ValueError(f"dimension must be at least {MIN_DIMENSION}, got {d}")
    if d > 2**63 - 1:
        raise ValueError(f"dimension {d} does not fit a 64-bit index")
    if family in ("separable", "nonseparable"):
        return [(0, d)], None
    if family in ("partial", "partial_tail"):
        # with a separable tail, the blocks cover 11/20 of d rounded half up
        span = d if family == "partial" else (11 * d + 10) // 20
        sizes = _block_sizes(span, min(len(_CANON), span // _MIN_SIZE))
        tail = (span, d - span) if d > span else None
        return list(zip(accumulate(sizes[:-1], initial=0), sizes)), tail
    if family in ("overlap_conforming", "overlap_conflicting"):
        # d >= MIN_DIMENSION gives n >= 2, and _MIN_SIZE * n <= d leaves room
        # for every block
        n = min(len(_CANON), d // _MIN_SIZE)
        overlap = max(1, (d // n) // 10)
        # the sizes sum to d + (n - 1) * overlap, so the last block ends at d
        sizes = _block_sizes(d + (n - 1) * overlap, n)
        starts = accumulate((s - overlap for s in sizes[:-1]), initial=0)
        return list(zip(starts, sizes)), None
    raise ValueError(f"unknown family {family!r}")


def _conflict_least_squares(subcomponents, dimension, alpha) -> np.ndarray:
    """Exact minimiser of F14's conflicting chain in permuted coordinates.

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
        a = a * conditioning_weights(sub.size, alpha)[np.newaxis, :]
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
                 subcomponents, tail, solution):
        fspec = _FUNCTIONS[function_id]
        self.function_id = function_id
        self.dimension = dimension
        self.seed = seed
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
        self._freeze()

    def __setstate__(self, state):
        # unpickled arrays are writeable, as in a run_batch worker
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self):
        """Mark every array read-only: fresh_copy shares them."""
        parts = (self, *self.subcomponents, *([self.tail] if self.tail else []))
        for part in parts:
            for value in vars(part).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False

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
        # the conflicting chain shifts each block, every other family the whole vector
        if self.shift is None:
            self._shift = np.concatenate([p.local_shift for p in parts])
        else:
            self._shift = self.shift[self._gather]
        self._rotations = [(a, b, p.rotation) for (a, b), p in zip(spans, parts)
                           if p.rotation is not None]
        # the function table pairs the two maps: every id with the oscillation
        # map has a skew slope, and the one without (F14) has neither
        self._slope = None
        if self.irregularity:
            self._slope = self.asymmetry_beta * np.concatenate(
                [_gradient(p.size) for p in parts])
        # elliptic ids: block weight x elliptic weights x squared conditioning
        # weights in one vector, so the value is one weighted row sum of z*z;
        # other bases keep the conditioning weights (exactly 1.0 for F12's
        # alpha of 1) and (start, stop, weight, base function) per block
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
            self._cond = np.concatenate(
                [conditioning_weights(p.size, alpha) for p in parts])
            fn = _DISPATCH[self.base]
            self._terms = [(a, b, p.weight, fn) for (a, b), p in zip(spans, parts)]

    def _solve_optimum(self, solution) -> np.ndarray:
        """Optimum preimage; `solution` is the conflicting chain's
        `_conflict_least_squares` result, None for every other family."""
        d = self.dimension
        if self.family == "overlap_conflicting":
            y = solution
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
        padded = np.zeros((G, self._gather.size))
        z = padded[:m]
        # the index is in range; "clip" fills out unbuffered, unlike "raise"
        np.take(x, self._gather, axis=1, out=z, mode="clip")
        z -= self._shift
        for a, b, rotation in self._rotations:
            if _row_major(b - a):
                w = -(-m // 4) * 4
                z[:, a:b] = (padded[:w, a:b] @ rotation.T)[:m]
            else:
                z[:, a:b] = (rotation @ padded[:, a:b].T)[:, :m].T
        if self._slope is not None:
            oscillate_skew_inplace(z, self._slope)
        if self._row_weights is not None:
            z *= z
            z *= self._row_weights
            total = z.sum(axis=1)
        else:
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
        """Copy with its own zeroed evaluation counter. It shares the
        instance's arrays, which the constructor made read-only."""
        dup = copy.copy(self)
        dup.eval_count = 0
        return dup

    # serialisation

    def digest(self) -> dict:
        """sha256 hex digests of the generated arrays (permutation as int64,
        shift, block weights, per-block shifts) and of the rotations."""
        subs = self.subcomponents
        arrays = [self.permutation.astype(np.int64), self.shift,
                  np.array([s.weight for s in subs]), *(s.local_shift for s in subs)]
        parts = {"arrays": arrays, "rotations": [s.rotation for s in subs]}
        return {name: hashlib.sha256(b"".join(a.tobytes() for a in group if a is not None))
                .hexdigest() for name, group in parts.items()}

    def to_descriptor(self) -> dict:
        return {
            "format": _DESCRIPTOR_FORMAT,
            "function_id": self.function_id,
            "dimension": self.dimension,
            "seed": self.seed,
            "bounds": list(self.bounds),
            "base": self.base,
            "family": self.family,
            "rotated": _FUNCTIONS[self.function_id].rotated,
            "irregularity": self.irregularity,
            "asymmetry_beta": self.asymmetry_beta,
            "conditioning_alpha": self.conditioning_alpha,
            "layout": [[s.start, s.size] for s in self.subcomponents],
            "weights": [s.weight for s in self.subcomponents],
            "tail": [self.tail.start, self.tail.size] if self.tail is not None else None,
            "digest": self.digest(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_descriptor(), **kwargs)


def _seed_sequence(**words) -> np.random.SeedSequence:
    """The one rule from integers to a random stream: the first word (the
    seed) mod 2**64, then the others in order, each through operator.index."""
    try:
        seed, *rest = [operator.index(v) for v in words.values()]
    except TypeError:
        shown = ", ".join(f"{k}={v!r}" for k, v in words.items())
        raise ValueError(f"seeds must be integers, got {shown}") from None
    return np.random.SeedSequence([seed % 2**64, *rest])


def make_instance(function_id: str, dimension: int, seed: int) -> BenchmarkInstance:
    """Generate the benchmark instance for (function_id, dimension, seed).

    The seed spawns two child streams. Draw order from the first is fixed:
    permutation, shift(s), block weights; the rotations come from the
    second. This layout gives the bits every released instance has, so it
    must not change.
    """
    if function_id not in _FUNCTIONS:
        raise ValueError(
            f"unknown function id {function_id!r}; expected F1..F{len(_FUNCTIONS)}"
        )
    try:
        dimension, seed = operator.index(dimension), operator.index(seed)
    except TypeError:
        raise ValueError("dimension and seed must be integers, got "
                         f"dimension={dimension!r}, seed={seed!r}") from None
    fspec = _FUNCTIONS[function_id]
    sub_layout, tail_layout = _layout(fspec.family, dimension)
    root = _seed_sequence(seed=seed, function=FUNCTION_IDS.index(function_id) + 1,
                          dimension=dimension)
    main_ss, rot_ss = root.spawn(2)
    rng = np.random.default_rng(main_ss)

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
        rot_rng = np.random.default_rng(rot_ss)
        for sub in subs:
            sub.rotation = random_orthogonal(sub.size, rot_rng)
    solution = None
    if conflicting:
        # conflicting targets can push the compromise point outside the box;
        # the solution is linear in the local shifts, so one common shrink
        # factor pins the exact optimum inside the central band. After a
        # shrink the chain is solved again on the shrunk shifts: rescaling
        # the solution would not give the same bits, and released instances
        # have those of the second solve.
        solution = _conflict_least_squares(subs, dimension, fspec.conditioning_alpha)
        cap = 0.8 * half
        peak = float(np.max(np.abs(solution)))
        if peak > cap:
            for sub in subs:
                sub.local_shift = sub.local_shift * (cap / peak)
            solution = _conflict_least_squares(subs, dimension,
                                               fspec.conditioning_alpha)
    tail = None
    if tail_layout is not None:
        tail = Subcomponent(tail_layout[0], tail_layout[1], 1.0)

    return BenchmarkInstance(function_id, dimension, seed, shift, perm, subs, tail,
                             solution)


def from_descriptor(desc: dict) -> BenchmarkInstance:
    """Rebuild the instance a descriptor was exported from.

    A descriptor is a checked export of (function_id, dimension, seed): the
    instance is `make_instance` of those three fields, and `desc` must equal
    its `to_descriptor()` field by field. A ValueError names the first field
    that is missing, has the wrong type, differs or is not a descriptor field.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor must be a JSON object, not {type(desc).__name__}")
    for field, kind in (("format", str), ("function_id", str),
                        ("dimension", int), ("seed", int)):
        if field not in desc:
            raise ValueError(f"descriptor has no {field} field")
        value = desc[field]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"descriptor {field} must be of type {kind.__name__}, "
                             f"got {value!r}")
    source = f"make_instance({desc['function_id']!r}, {desc['dimension']}, {desc['seed']})"

    def check(expected):
        for field, value in expected.items():
            if field not in desc:
                raise ValueError(f"descriptor has no {field} field")
            if desc[field] != value:
                raise ValueError(f"descriptor {field} differs from that of {source}")
    # an edited dimension is refused before an instance of that size is built:
    # every layout ends at its dimension, and none fits one `_layout` refuses
    if (fspec := _FUNCTIONS.get(desc["function_id"])) is not None:
        try:
            blocks, tail = _layout(fspec.family, desc["dimension"])
        except ValueError:
            raise ValueError(f"descriptor layout differs from that of {source}") from None
        check({"layout": [list(b) for b in blocks], "tail": list(tail) if tail else None})
    instance = make_instance(desc["function_id"], desc["dimension"], desc["seed"])
    expected = instance.to_descriptor()
    check(expected)
    for field in desc:
        if field not in expected:
            raise ValueError(f"descriptor has an unknown field {field!r}")
    return instance


def from_json(text: str) -> BenchmarkInstance:
    return from_descriptor(json.loads(text))
