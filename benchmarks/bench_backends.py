"""Training throughput of the numpy step, in member-questions per second.

Trains the same synthetic stream at K=1 and K=4 ensemble members.  Each
configuration is warmed up on a short stream first, so first-call costs
are not billed to the measured run.

    python3 benchmarks/bench_backends.py --n 5000 --d 4
"""

import argparse
import time

from forecast_rl.algorithms import HyperParams
from forecast_rl.data import SyntheticConfig, generate_synthetic_stream
from forecast_rl.reward import PenaltyConfig
from forecast_rl.trainer import TrainConfig, train_members


def time_run(stream, cfg, k: int, seed: int) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = train_members(stream, cfg, HyperParams(), PenaltyConfig(), range(k), seed=seed)
    return time.perf_counter() - t0, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5000, help="stream length")
    parser.add_argument("--d", type=int, default=4, help="feature dimension")
    parser.add_argument("--algorithm", default="remax",
                        choices=["grpo", "modified_grpo", "remax"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    stream, _ = generate_synthetic_stream(SyntheticConfig(args.n, args.d, market_noise=0.5), args.seed)
    warmup, _ = generate_synthetic_stream(SyntheticConfig(64, args.d, market_noise=0.5), args.seed + 1)
    cfg = TrainConfig(algorithm=args.algorithm)

    for k in (1, 4):
        time_run(warmup, cfg, k, args.seed)
        elapsed, results = time_run(stream, cfg, k, args.seed)
        print(f"numpy K={k}: {elapsed:8.3f} s  {k * args.n / elapsed:10.0f} member-questions/s  "
              f"member 0 mean reward {results[0].run_log.summary()['mean_reward']:+.4f}")


if __name__ == "__main__":
    main()
