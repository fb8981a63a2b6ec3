"""Training throughput of each backend, in member-questions per second.

Trains the same synthetic stream with the batched numpy step at K=1 and
K=4 ensemble members, and with the compiled kernel (one member) when
numba is importable.  Every configuration is warmed up on a short stream
first, so JIT compilation and first-call costs are not billed to the
measured run.

    python3 benchmarks/bench_backends.py --n 5000 --d 4
    FORECAST_RL_NO_NUMBA=1 python3 benchmarks/bench_backends.py
"""

import argparse
import time

import numpy as np

from forecast_rl import kernels
from forecast_rl.algorithms import HyperParams
from forecast_rl.data import SyntheticConfig, generate_synthetic_stream
from forecast_rl.reward import PenaltyConfig
from forecast_rl.trainer import TrainConfig, train_members


def time_run(stream, cfg, backend: str, k: int) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = train_members(stream, cfg, HyperParams(), PenaltyConfig(), range(k), backend=backend)
    return time.perf_counter() - t0, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5000, help="stream length")
    parser.add_argument("--d", type=int, default=4, help="feature dimension")
    parser.add_argument("--algorithm", default="remax",
                        choices=["grpo", "modified_grpo", "remax"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    stream, _ = generate_synthetic_stream(
        SyntheticConfig(args.n, args.d, market_noise=0.5, seed=args.seed)
    )
    warmup, _ = generate_synthetic_stream(
        SyntheticConfig(64, args.d, market_noise=0.5, seed=args.seed + 1)
    )
    cfg = TrainConfig(algorithm=args.algorithm, seed=args.seed)

    runs = [("numpy", 1), ("numpy", 4)]
    if kernels.NUMBA_AVAILABLE:
        runs.insert(0, ("numba", 1))
    else:
        print("numba backend unavailable (package missing or FORECAST_RL_NO_NUMBA=1)")

    first_member = {}
    for backend, k in runs:
        time_run(warmup, cfg, backend, k)
        elapsed, results = time_run(stream, cfg, backend, k)
        first_member[backend] = results[0]
        print(f"{backend:>6} K={k}: {elapsed:8.3f} s  {k * args.n / elapsed:10.0f} member-questions/s  "
              f"member 0 mean reward {results[0].run_log.summary()['mean_reward']:+.4f}")

    if "numba" in first_member:
        a, b = first_member["numba"].params, first_member["numpy"].params
        drift = max(
            float(np.max(np.abs(a.content_weights - b.content_weights))),
            float(np.max(np.abs(a.answer_weights - b.answer_weights))),
        )
        print(f"max param diff numba vs numpy, member 0: {drift:.2e}")


if __name__ == "__main__":
    main()
