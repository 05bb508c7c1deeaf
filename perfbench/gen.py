"""Seeded benchmark inputs, each with its ground truth.

Nothing here imports entkit: the inputs come from numpy and the seed alone, so
a library change cannot change what the benchmark feeds it. The same seed gives
byte-identical states and state files.

A state with Schmidt coefficients sigma is built as C = U diag(sigma) V^T with
U and V Haar-random isometries, so its true spectrum is known by construction
rather than computed by the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# entkit's documented default: singular values above this fraction of the
# largest count towards the Schmidt index.
RANK_CUTOFF = 1e-10

SPECTRA = ("full", "rank2", "product", "uniform", "graded", "zerosum")


@dataclass(frozen=True)
class Case:
    """One input and what a correct program reports for it.

    ``sigma`` holds every normalized Schmidt coefficient (descending), ``r``
    those above ``RANK_CUTOFF`` of the largest, and ``e_true`` the
    entanglement number sqrt(2 sum_{i<j} w_i w_j) of the weights w = sigma^2.
    """

    name: str
    cls: str
    dims: tuple[int, int]
    sigma: tuple[float, ...]
    r: int
    e_true: float
    coefficients: np.ndarray | None = None
    text: str | None = None

    @property
    def verdict(self) -> str:
        return "factorized" if self.r == 1 else "entangled"

    @property
    def shape_class(self) -> str:
        m, n = self.dims
        return "square" if m == n else ("tall" if m > n else "wide")


def truth(sigma) -> tuple[tuple[float, ...], int, float]:
    """Normalized descending coefficients, Schmidt index and e from raw sigma."""
    raw = sorted((abs(float(s)) for s in sigma), reverse=True)
    norm = math.sqrt(math.fsum(s * s for s in raw))
    sig = tuple(s / norm for s in raw)
    r = sum(1 for s in sig if s > RANK_CUTOFF * sig[0])
    w = [s * s for s in sig]
    total = math.fsum(w)
    w = [x / total for x in w]
    pairs = math.fsum(w[i] * w[j] for i in range(len(w)) for j in range(i + 1, len(w)))
    return sig, r, math.sqrt(2.0 * pairs)


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_isometry(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """First k columns of a Haar-random n x n unitary."""
    return _orthonormalize(_gaussian(rng, (n, n)))[:, :k]


def centered_isometry(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Orthonormal n x k columns whose entries each sum to zero (needs k < n).

    Subtracting each Gaussian column's mean entry puts it in the complement of
    the all-ones vector, and orthonormalizing stays inside that complement.
    """
    g = _gaussian(rng, (n, k))
    return _orthonormalize(g - g.mean(axis=0))


def spectrum(rng: np.random.Generator, cls: str, k: int) -> np.ndarray:
    if cls in ("full", "zerosum"):
        return rng.uniform(0.1, 1.0, k)
    if cls == "rank2":
        return np.concatenate([[1.0, rng.uniform(0.2, 0.9)], np.zeros(k - 2)])
    if cls == "product":
        return np.concatenate([[1.0], np.zeros(k - 1)])
    if cls == "uniform":
        return np.ones(k)
    if cls == "graded":
        # Spans eight decades, staying two decades clear of RANK_CUTOFF.
        return np.logspace(0.0, -8.0, k)
    raise ValueError(f"unknown spectrum class {cls!r}")


def state_case(rng: np.random.Generator, m: int, n: int, cls: str) -> Case:
    """A dense m x n state of spectrum class ``cls`` with its ground truth.

    The ``zerosum`` class has coefficient sum zero, which sends entkit's
    factor test to its Schmidt-rank fallback: the Schmidt vectors on the
    longer side (left when square) are centered, so 1^T C 1 = 0, leaving
    room for min(m, n) - 1 coefficients on a square state.
    """
    k = min(m, n)
    if cls == "zerosum":
        k = k - 1 if m == n else k
        left_long = m >= n
        u = centered_isometry(rng, m, k) if left_long else haar_isometry(rng, m, k)
        v = haar_isometry(rng, n, k) if left_long else centered_isometry(rng, n, k)
    else:
        u, v = haar_isometry(rng, m, k), haar_isometry(rng, n, k)
    sig, r, e = truth(spectrum(rng, cls, k))
    c = (u * np.asarray(sig)) @ v.T
    c.setflags(write=False)
    return Case(f"{m}x{n}-{cls}", cls, (m, n), sig, r, e, coefficients=c)


def permuted_diagonal_case(rng: np.random.Generator, m: int, n: int, cls: str) -> Case:
    """A sparse state: sigma_i (times a random phase) at k distinct (row, col) cells."""
    k = min(m, n)
    sig, r, e = truth(spectrum(rng, cls, k))
    rows = rng.permutation(m)[:k]
    cols = rng.permutation(n)[:k]
    phases = np.exp(2j * np.pi * rng.uniform(size=k))
    c = np.zeros((m, n), dtype=complex)
    c[rows, cols] = np.asarray(sig) * phases
    c.setflags(write=False)
    return Case(f"{m}x{n}-{cls}-sparse", cls, (m, n), sig, r, e, coefficients=c)


# ---------------------------------------------------------------------------
# analyze workload: states handed to build_analysis_report

# Per-op latency is read at the median and at the 11th-slowest op of a pass,
# so each sits in a block of like cases whose costs are close: 16x16 full and
# graded states around the median, 32x32 states around the tail. The slow
# shapes (1-2 s per call at the seed) appear once, so two passes fit a run.
ANALYZE_CYCLE = (
    [(16, 16, c) for c in SPECTRA]
    + [(16, 16, "full")] * 7 + [(16, 16, "graded")] * 5
    + [(32, 32, c) for c in SPECTRA]
    + [(32, 32, "full"), (32, 32, "graded"), (32, 32, "rank2"), (32, 32, "product")]
    + [(64, 64, "full"), (64, 64, "uniform"), (64, 2, "graded"), (64, 4, "full")]
    + [(2, 64, c) for c in SPECTRA]
    + [(4, 128, c) for c in SPECTRA if c != "zerosum"]
)
SMOKE_ANALYZE_CYCLE = [(4, 4, c) for c in SPECTRA] + [(8, 2, "graded"), (2, 8, "zerosum")]


def analyze_cases(seed: int, smoke: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for m, n, cls in SMOKE_ANALYZE_CYCLE if smoke else ANALYZE_CYCLE:
        case = state_case(rng, m, n, cls)
        repeats = sum(1 for c in cases if c.name.split("#")[0] == case.name)
        cases.append(replace(case, name=f"{case.name}#{repeats}") if repeats else case)
    return cases


# ---------------------------------------------------------------------------
# state files

def format_complex(z: complex) -> str:
    """A literal entkit's state-file parser reads back to the same double."""
    re, im = float(z.real), float(z.imag)
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def state_file_text(c: np.ndarray, body: str, normalize: bool, scale: float = 1.0) -> str:
    """Render C (times ``scale``) as a dense or sparse state file."""
    m, n = c.shape
    lines = ["# generated benchmark input", f"dims {m} {n}"]
    if normalize:
        lines.append("normalize")
    lines.append(body)
    c = c * scale
    if body == "dense":
        lines += [" ".join(format_complex(z) for z in row) for row in c]
    else:
        lines += [
            f"{i + 1} {j + 1} {format_complex(c[i, j])}"
            for i, j in zip(*np.nonzero(c))
        ]
    return "\n".join(lines) + "\n"


# The files shipped in states/, with their Schmidt weights in closed form
# (from the derivations in each file's comment).
SHIPPED = {
    "bell": ((2, 2), (0.5, 0.5)),
    "example1": ((2, 2), (0.5, 0.5)),
    "example3": ((3, 3), (1.0,)),
    "example4_alpha": ((2, 2), (0.5, 0.5)),
    "example4_beta": ((3, 3), (1 / 3, 1 / 3, 1 / 3)),
    "example4_delta": ((3, 3), (7 / 9, 1 / 9, 1 / 9)),
    "example4_gamma": ((3, 3), (1 / 2, 1 / 3, 1 / 6)),
    "example5": ((2, 2), (1.0,)),
    "example6": ((2, 2), (4 / 5, 1 / 5)),
    "example7": ((2, 2), ((1 + 2 * math.sqrt(2) / 3) / 2, (1 - 2 * math.sqrt(2) / 3) / 2)),
}

# (m, n, spectrum class, body, normalize directive)
FILE_SPECS = [
    (2, 2, "full", "dense", False),
    (3, 3, "rank2", "dense", True),
    (4, 4, "product", "dense", False),
    (6, 6, "full", "dense", True),
    (8, 8, "uniform", "dense", False),
    (2, 3, "full", "dense", True),
    (4, 8, "rank2", "dense", False),
    (8, 8, "zerosum", "dense", True),
    (8, 8, "zerosum", "dense", False),
    (7, 7, "zerosum", "dense", False),
    (2, 2, "uniform", "sparse", True),
    (3, 3, "full", "sparse", False),
    (5, 5, "product", "sparse", True),
    (8, 8, "full", "sparse", False),
    (3, 6, "rank2", "sparse", True),
    (6, 4, "graded", "sparse", False),
]
SMOKE_FILE_SPECS = FILE_SPECS[:3] + FILE_SPECS[8:10]

# Near-threshold epsilons are drawn log-uniformly from these decade bands, so
# every seed has some on each side of RANK_CUTOFF; values within 5% of the
# cutoff are redrawn because rounding could legitimately land either way.
NEAR_BANDS = [(-11.0, -10.25), (-10.25, -9.5), (-9.5, -8.75), (-8.75, -8.0)]
NEAR_THRESHOLD = "near-threshold"


def near_threshold_cases(rng: np.random.Generator, bands) -> list[Case]:
    """diag(1, eps) as a sparse normalized file and a dense local-unitary image."""
    cases = []
    for lo, hi in bands:
        eps = 10.0 ** rng.uniform(lo, hi)
        while abs(math.log10(eps / RANK_CUTOFF)) < 0.02:
            eps = 10.0 ** rng.uniform(lo, hi)
        sig, r, e = truth([1.0, eps])
        diag = np.diag(np.asarray(sig, dtype=complex))
        image = haar_isometry(rng, 2, 2) @ diag @ haar_isometry(rng, 2, 2).T
        tag = f"{eps:.3g}"
        cases.append(Case(f"near-{tag}-diag", NEAR_THRESHOLD, (2, 2), sig, r, e, diag,
                          state_file_text(diag, "sparse", True, rng.uniform(0.5, 4.0))))
        cases.append(Case(f"near-{tag}-image", NEAR_THRESHOLD, (2, 2), sig, r, e, image,
                          state_file_text(image, "dense", False)))
    return cases


def shipped_cases(states_dir: Path) -> list[Case]:
    cases = []
    for name, (dims, weights) in SHIPPED.items():
        sig, r, e = truth([math.sqrt(w) for w in weights])
        text = (states_dir / f"{name}.state").read_text(encoding="utf-8")
        cases.append(Case(name, "shipped", dims, sig, r, e, text=text))
    return cases


def file_cases(seed: int, states_dir: Path, smoke: bool = False) -> list[Case]:
    """Shipped files, generated dense and sparse files, and the near-threshold class."""
    rng = np.random.default_rng([seed, 2])
    cases = shipped_cases(states_dir)
    for m, n, cls, body, normalize in SMOKE_FILE_SPECS if smoke else FILE_SPECS:
        base = (state_case if body == "dense" else permuted_diagonal_case)(rng, m, n, cls)
        scale = rng.uniform(0.5, 4.0) if normalize else 1.0
        text = state_file_text(base.coefficients, body, normalize, scale)
        name = f"{m}x{n}-{cls}-{body}" + ("-normalize" if normalize else "")
        cases.append(Case(name, f"{body}-{'normalize' if normalize else 'plain'}",
                          base.dims, base.sigma, base.r, base.e_true,
                          coefficients=base.coefficients, text=text))
    cases += near_threshold_cases(rng, NEAR_BANDS[1:3] if smoke else NEAR_BANDS)
    return cases


def write_files(cases: list[Case], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = directory / f"{i:02d}-{case.name}.state"
        path.write_text(case.text, encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# scenario workload: (demo seed, dim) pairs for run_demo("action-at-a-distance")

# At the seed d=32 costs about 40x d=16, and memory grows like d^4. Two d=32
# ops per pass keep its cost and peak memory in every pass while leaving room
# for enough d=16 ops that the median and tail latency are read among many.
SCENARIO_MIX = {8: 12, 16: 40, 32: 2}
SMOKE_SCENARIO_MIX = {2: 2, 3: 2, 4: 2}


def scenario_cases(seed: int, smoke: bool = False) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 3])
    mix = SMOKE_SCENARIO_MIX if smoke else SCENARIO_MIX
    dims = [d for d, count in mix.items() for _ in range(count)]
    return [(int(rng.integers(0, 2**31)), d) for d in dims]
