"""The commons game: tragedy, permits with slack, shocks, optimization.

Run as: python3 demos/04_commons_regulation.py  (takes several seconds)
"""

from grovekit import (
    Excession,
    GameConfig,
    PolicySpec,
    mean_welfare,
    optimize_slack,
    run_episode,
)
from grovekit.regsim import NO_LAW

SEEDS = range(1, 11)
config = GameConfig()

print("== the tragedy: greedy 0-agents, no law ==")
trace = run_episode(GameConfig(seed=1, rounds=200), NO_LAW)
print(f"minimum resource within 200 rounds: {trace.min_resource():.2f} "
      f"(capacity {config.capacity})")
print(f"welfare: {trace.welfare:.1f}; exits: "
      f"{sum(1 for e in trace.events if ':exit:' in e)}")

print("\n== permits with slack, strategic 2-agents ==")
for slack in (0.0, 0.2, 0.5):
    policy = PolicySpec("slack1d", (slack,))
    w = mean_welfare(config, policy, SEEDS, order=2)
    print(f"slack {slack}: mean welfare {w:.1f}")
baseline = mean_welfare(config, NO_LAW, SEEDS, order=2)
print(f"unregulated baseline: {baseline:.1f}")

print("\n== optimizing the slack lever ==")
result = optimize_slack(config, seeds=SEEDS, order=2)
print(f"optimal slack {result.policy.theta[0]:.4f}, "
      f"welfare {result.welfare:.1f}")
print("coarse scan:", [(round(s, 3), round(w, 1))
                       for s, w in result.scan_points])

print("\n== excession: capacity halves at round 200 ==")
events = [Excession(200, "capacity_drop", 0.5)]
adaptive = PolicySpec("slack1d", result.policy.theta)
frozen = PolicySpec("fixed", (0.45, 0.2, 0.9, 1.0))
wa = mean_welfare(config, adaptive, SEEDS, order=2, events=events)
wf = mean_welfare(config, frozen, SEEDS, order=2, events=events)
print(f"adaptive policy after shock: {wa:.1f}")
print(f"frozen law after shock:      {wf:.1f}")

print("\n== one regulated episode in detail ==")
cfg = GameConfig(seed=3, rounds=100)
trace = run_episode(cfg, adaptive, 2)
for row in trace.rows[::20]:
    law = row["law"]
    print(f"round {row['round']:3d}: R = {row['resource']:6.2f}, "
          f"cap = {law.cap:.3f}, active = {sum(row['active'])}")
