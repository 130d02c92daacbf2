"""Figure 9: average correct vs incorrect likelihood over training
iterations for Cond = [1, 0, 0].

The paper: "over increasing iterations, the positive likelihood averages
improve.  This shows that the generator is able to accurately learn the
conditional distribution of the acoustic emissions."

This benchmark trains a fresh CGAN with generator snapshots, runs
Algorithm 3 against each snapshot for Cond1, and plots both averages
against the snapshot iteration.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.gan import ConditionalGAN
from repro.security import security_analysis
from repro.utils.ascii_plot import ascii_line_plot
from repro.utils.tables import format_table

ITERATIONS = 1200
SNAPSHOT_EVERY = 60
H = 0.2
G_SIZE = 300


def _train_with_snapshots(train):
    cgan = ConditionalGAN(
        train.feature_dim, train.condition_dim, seed=BENCH_SEED
    )
    cgan.train(
        train,
        iterations=ITERATIONS,
        batch_size=32,
        snapshot_every=SNAPSHOT_EVERY,
    )
    return cgan


def _likelihood_trajectory(cgan, train, test):
    """Cor/Inc averaged over all 100 features per snapshot.

    The per-feature likelihood of a single snapshot is noisy (one small
    Parzen fit per snapshot); averaging over the full feature set shows
    the learning trend the paper plots.
    """
    cond1 = np.array([1.0, 0.0, 0.0])
    iters, cor, inc = [], [], []
    for iteration, generator in cgan.snapshots:
        def sampler(cond, n, rng, _g=generator, _c=cgan):
            z = _c.noise.sample(n, rng)
            conds = np.tile(np.asarray(cond, dtype=float), (n, 1))
            return _g.predict(np.hstack([z, conds]))

        res = security_analysis(
            sampler,
            test,
            conditions=cond1[None, :],
            h=H,
            g_size=G_SIZE,
            root_entropy=BENCH_SEED,
        )
        iters.append(iteration)
        cor.append(float(res.avg_correct[0].mean()))
        inc.append(float(res.avg_incorrect[0].mean()))
    return "all 100 (averaged)", iters, cor, inc


def _report(ft, iters, cor, inc):
    print()
    print("=" * 70)
    print("Figure 9 reproduction: Avg Cor/Inc likelihood vs iteration, "
          "Cond=[1,0,0]")
    print("=" * 70)
    print(
        ascii_line_plot(
            {"AvgCorLike": cor, "AvgIncLike": inc},
            title=f"likelihoods on feature #{ft} (h={H})",
            xlabel=f"snapshot iteration {iters[0]} .. {iters[-1]}",
            ylabel="avg likelihood",
        )
    )
    rows = [[it, c, i, c - i] for it, c, i in zip(iters, cor, inc)]
    print()
    print(
        format_table(
            rows,
            ["iteration", "AvgCorLike", "AvgIncLike", "margin"],
            title="per-snapshot values",
        )
    )
    half = len(cor) // 2
    print()
    print("-- paper-shape checks --")
    print(
        shape_check(
            "correct likelihood improves with training (late > early)",
            np.mean(cor[half:]) > np.mean(cor[:half]),
        )
    )
    print(
        shape_check(
            "late-training margin is positive (Cor > Inc)",
            np.mean(cor[half:]) > np.mean(inc[half:]),
        )
    )


def test_fig9_likelihood_trajectory(benchmark, bench_split):
    train, test = bench_split
    cgan = _train_with_snapshots(train)
    ft, iters, cor, inc = benchmark.pedantic(
        _likelihood_trajectory,
        args=(cgan, train, test),
        iterations=1,
        rounds=1,
    )
    _report(ft, iters, cor, inc)
