"""Per-function control-parameter tuning by a small real-coded GA.

A candidate is the triple (pitch adjustment rate, crossover rate, scale
factor). Its fitness is the mean final best of a few short hybrid runs,
so the tuner rewards settings that actually optimize well on the target
instance rather than settings that look good analytically. Published
per-function triples ship as a bundled data file; the GA is for tuning
against freshly generated instances.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .benchmarks import BenchmarkInstance
from .de import CR_RANGE, F_RANGE, DeParams
from .harmony import PAR_RANGE, HarmonyParams
from .hybrid import HybridConfig, fe_budget, run

PARAM_BOUNDS = (PAR_RANGE, CR_RANGE, F_RANGE)
_LO, _HI = np.array(PARAM_BOUNDS).T

_BLEND_ALPHA = 0.5
_MUTATION_RATE = 0.1
_MUTATION_SIGMA_FRACTION = 0.05
_TOURNAMENT_SIZE = 2

_DATA_PACKAGE = "lsgo_hybrid.data"
_PARAMS_FILE = "specialist_params.ini"


@dataclass(frozen=True)
class ParamVector:
    """Tunable triple: harmony pitch rate, DE crossover rate, DE scale."""

    par: float
    cr: float
    f: float

    def __post_init__(self):
        for value, (lo, hi), name in zip(
            (self.par, self.cr, self.f), PARAM_BOUNDS, ("par", "cr", "f")
        ):
            if not (lo <= value <= hi):
                raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass
class TunerConfig:
    ga_population: int = 12
    ga_generations: int = 8
    inner_budget: int = 30_000
    probes_per_eval: int = 3
    seed: int = 0
    population_size: int = HybridConfig.population_size  # pool of the probed runs

    def validate(self):
        if self.ga_population < 2:
            raise ValueError("ga_population must be at least 2")
        if self.ga_generations < 0:
            raise ValueError("ga_generations must not be negative")
        if self.probes_per_eval < 1:
            raise ValueError("probes_per_eval must be at least 1")
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.inner_budget < 2 * self.population_size:
            raise ValueError(
                "inner_budget must be at least twice the probe pool size"
            )


def load_specialist_params(function_id: str) -> ParamVector:
    """Bundled tuned triple for one benchmark function."""
    parser = configparser.ConfigParser()
    text = resources.files(_DATA_PACKAGE).joinpath(_PARAMS_FILE).read_text("utf-8")
    parser.read_string(text)
    if not parser.has_section(function_id):
        raise KeyError(
            f"no tuned parameters for {function_id!r}; have {parser.sections()}"
        )
    section = parser[function_id]
    return ParamVector(
        par=section.getfloat("par"),
        cr=section.getfloat("cr"),
        f=section.getfloat("f"),
    )


def probe_config(params: ParamVector, inner_budget: int,
                 population_size: int, seed: int) -> HybridConfig:
    """Single-cycle hybrid config consuming exactly inner_budget evaluations.

    The differential phase gets the largest whole number of sweeps not
    exceeding two thirds of the budget; the harmony phase takes the rest,
    keeping the roughly 1:2 split of the full-budget defaults.
    """
    de_evals = ((2 * inner_budget // 3) // population_size) * population_size
    harmony_evals = inner_budget - de_evals
    if de_evals < population_size:
        raise ValueError("inner_budget too small for one differential sweep")
    config = HybridConfig(
        population_size=population_size,
        outer_iterations=1,
        harmony=HarmonyParams(max_iterations=harmony_evals, par=params.par),
        de=DeParams(max_iterations=de_evals // population_size,
                    cr=params.cr, f=params.f),
        checkpoints=(1,),
        seed=seed,
    )
    assert fe_budget(config) == inner_budget
    return config


def _probe_fitness(instance: BenchmarkInstance, params: ParamVector,
                   config: TunerConfig, probe_seeds: np.ndarray) -> float:
    total = 0.0
    for probe_seed in probe_seeds:
        cfg = probe_config(params, config.inner_budget,
                           config.population_size, int(probe_seed))
        result = run(instance.fresh_copy(), cfg)
        total += result.final_best.fitness
    return total / len(probe_seeds)


def _tournament(rng: np.random.Generator, fitness: np.ndarray) -> int:
    contenders = rng.integers(0, len(fitness), size=_TOURNAMENT_SIZE)
    return int(min(contenders, key=lambda i: fitness[i]))


def _blend(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    spread = hi - lo
    return rng.uniform(lo - _BLEND_ALPHA * spread, hi + _BLEND_ALPHA * spread)


def _mutate(rng: np.random.Generator, genes: np.ndarray) -> np.ndarray:
    mask = rng.random(genes.size) < _MUTATION_RATE
    noise = rng.normal(0.0, _MUTATION_SIGMA_FRACTION * (_HI - _LO))
    return np.where(mask, genes + noise, genes)


def tune(instance: BenchmarkInstance, config: TunerConfig) -> tuple[ParamVector, float]:
    """GA search over the triple; returns (best vector, its probe fitness).

    Deterministic given config.seed. Every fitness evaluation costs
    probes_per_eval * inner_budget objective calls.
    """
    config.validate()
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed) & 0xFFFFFFFFFFFFFFFF])
    )

    def evaluate(genes: np.ndarray) -> float:
        seeds = rng.integers(0, 2**63, size=config.probes_per_eval)
        return _probe_fitness(instance, ParamVector(*genes), config, seeds)

    genomes = rng.uniform(_LO, _HI, size=(config.ga_population, len(PARAM_BOUNDS)))
    fitness = np.array([evaluate(g) for g in genomes])

    for _ in range(config.ga_generations):
        elite = genomes[int(np.argmin(fitness))].copy()
        children = [elite]
        while len(children) < config.ga_population:
            pa = genomes[_tournament(rng, fitness)]
            pb = genomes[_tournament(rng, fitness)]
            child = np.clip(_mutate(rng, _blend(rng, pa, pb)), _LO, _HI)
            children.append(child)
        genomes = np.array(children)
        # the elite keeps its score; only fresh children are re-probed
        new_fitness = np.empty(config.ga_population)
        new_fitness[0] = fitness.min()
        for i in range(1, config.ga_population):
            new_fitness[i] = evaluate(genomes[i])
        fitness = new_fitness

    best = int(np.argmin(fitness))
    return ParamVector(*genomes[best]), float(fitness[best])


def hybrid_config_for(params: ParamVector,
                      base: HybridConfig | None = None) -> HybridConfig:
    """Full-budget config with the triple substituted in."""
    config = base if base is not None else HybridConfig()
    return replace(
        config,
        harmony=replace(config.harmony, par=params.par),
        de=replace(config.de, cr=params.cr, f=params.f),
    )
