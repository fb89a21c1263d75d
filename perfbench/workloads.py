"""The four benchmark workloads as lists of `oscispec` CLI operations.

Seed 0 gives exactly the inputs documented in README.md.  Any other seed
jitters the search inputs slightly (scan window edges and grid counts, rect
corners) and never the physics, so the stored reference roots hold for every
seed.  `verify` takes no search window, so verify_oracle is the same for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: scan window (p_min, p_max, n_grid) of every built-in model; equal to
#: oscispec.models.SCAN_DEFAULTS when the benchmark was written, and kept
#: here so that a later change of the defaults does not change the workload
DEFAULT_SCAN = (0.2, 10.0, 240)

CATALOG_MODELS = (
    "machine_unit",
    "spacecraft_bar",
    "cable_snapshot",
    "pipeline",
    "fixed_free_string",
    "fixed_fixed_string",
    "point_mass_string",
)
SWEEP = ("spacecraft_bar", "d", 0.0, 0.2, 5, (0.3, 2.0, 50))
RECTS = (
    ("machine_unit", {"left_end": "clamped", "right_end": "clamped"}, (-0.5, 0.0, 0.5, 10.0, 4, 4)),
    ("spacecraft_bar", {"beta": 0.02}, (-0.5, 0.0, 0.5, 6.0, 4, 6)),
)
VERIFY_MODELS = ("machine_unit", "pipeline", "spacecraft_bar", "point_mass_string")
MODE_MODELS = ("fixed_free_string", "fixed_fixed_string", "point_mass_string", "cable_snapshot")
MODE_INDICES = (1, 2, 3)

#: jitter of scan window edges, as a share of the window width
SCAN_EDGE_JITTER = 1e-3
#: jitter of scan grid counts, as a share of the count (240 -> 238..242)
SCAN_COUNT_JITTER = 1e-2
#: jitter of rect corners, as a share of the side length.  The Newton seed
#: grid is sensitive to where its seeds sit: at 2e-3 one seed in six of the
#: clamped machine_unit grid converged instead of burning max_iter, which
#: cut the operation from 2,430 to 301 determinant evaluations.  At 1e-4
#: twelve seeds out of twelve kept the seed-0 count.
RECT_JITTER = 1e-4

WORKLOADS = ("scan_catalog", "rect_search", "verify_oracle", "modes_split")


@dataclass(frozen=True)
class Op:
    """One CLI call and what its checks need to know about it."""

    kind: str  # solve | sweep | modes | verify
    model: str
    params: tuple[tuple[str, object], ...] = ()
    scan: tuple[float, float, int] | None = None
    rect: tuple[float, float, float, float, int, int] | None = None
    sweep: tuple[str, float, float, int] | None = None
    path: str = "complex"
    indices: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        extra = "".join(f",{k}={v}" for k, v in self.params)
        return f"{self.kind}:{self.model}{extra}"

    def argv(self, out_dir: str) -> list[str]:
        if self.kind == "verify":
            return ["verify", self.model]
        args = [self.kind, "--model", self.model]
        for key, value in self.params:
            args += ["--param", f"{key}={value}"]
        if self.scan is not None:
            lo, hi, n = self.scan
            args += ["--scan", f"{lo!r}:{hi!r}:{n}"]
        if self.rect is not None:
            args.append("--rect=" + ":".join(repr(v) for v in self.rect))
        if self.sweep is not None:
            name, lo, hi, count = self.sweep
            args += ["--sweep", f"{name}:{lo!r}:{hi!r}:{count}"]
        if self.path != "complex":
            args += ["--path", self.path]
        if self.indices:
            args += ["--indices", ",".join(str(i) for i in self.indices)]
        return args + ["--out", out_dir]

    def problems(self) -> list[tuple[str, dict]]:
        """(model, params) of every problem the operation solves."""
        base = dict(self.params)
        if self.sweep is None:
            return [(self.model, base)]
        name, lo, hi, count = self.sweep
        # the values `oscispec sweep` visits (np.linspace), without numpy:
        # this module is imported before the thread count is pinned
        values = [lo + (hi - lo) * i / (count - 1) for i in range(count)] if count > 1 else [lo]
        return [(self.model, {**base, name: v}) for v in values]


def _jitter_scan(rng: random.Random | None, window):
    lo, hi, n = window
    if rng is None:
        return window
    width = hi - lo
    return (
        lo + rng.uniform(-1, 1) * SCAN_EDGE_JITTER * width,
        hi + rng.uniform(-1, 1) * SCAN_EDGE_JITTER * width,
        max(2, round(n * (1 + rng.uniform(-1, 1) * SCAN_COUNT_JITTER))),
    )


def _jitter_rect(rng: random.Random | None, rect):
    re0, re1, im0, im1, nr, ni = rect
    if rng is None:
        return rect
    dr = RECT_JITTER * (re1 - re0)
    di = RECT_JITTER * (im1 - im0)
    return (
        re0 + rng.uniform(-1, 1) * dr,
        re1 + rng.uniform(-1, 1) * dr,
        im0 + rng.uniform(-1, 1) * di,
        im1 + rng.uniform(-1, 1) * di,
        nr,
        ni,
    )


def build_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of a workload, for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    if workload == "scan_catalog":
        ops = [
            Op("solve", m, scan=_jitter_scan(rng, DEFAULT_SCAN)) for m in CATALOG_MODELS
        ]
        model, name, lo, hi, count, window = SWEEP
        ops.append(Op("sweep", model, scan=_jitter_scan(rng, window), sweep=(name, lo, hi, count)))
        return ops
    if workload == "rect_search":
        return [
            Op("solve", m, tuple(p.items()), rect=_jitter_rect(rng, r)) for m, p, r in RECTS
        ]
    if workload == "verify_oracle":
        return [Op("verify", m) for m in VERIFY_MODELS]
    return [
        Op(
            "modes",
            m,
            scan=_jitter_scan(rng, DEFAULT_SCAN),
            path="real_split",
            indices=MODE_INDICES,
        )
        for m in MODE_MODELS
    ]
