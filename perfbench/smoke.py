"""Smoke check of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs the untraced and the traced mode on the tiny test config (3 cells,
5 nodes, 4 channels, 10 px) for a few seconds each and requires every metric
that BENCHMARK.json names, with its unit, and every output check. Then it
requires both sigma oracles to reject a supernet whose ``adjust_all()`` was
skipped and to accept one that was adjusted to convergence. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import os
import sys

import run

SECONDS = 3.0
SEARCH_CHECKS = {"finite_losses", "rank_table_derives", "checkpoint_reproduces_ranks",
                 "sigma_estimate_oracle", "sigma_oracle", "deterministic_artifacts"}


def main() -> int:
    run._load_program()
    import bench
    import checks
    from msrnas import build_supernet, config

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, section, key in ((False, "end_to_end", "end_to_end"),
                                (True, "per_layer", "per_layer")):
        result = bench.run_benchmark(bench.TINY, 0, SECONDS, trace, run.ROOT)
        emitted = result[key]
        for metric in spec[section]:
            got = emitted.get(metric["name"])
            if got is None or got[1] != metric["unit"]:
                problems.append(f"trace={int(trace)}: {metric['name']} "
                                f"missing or unit {got and got[1]!r} != {metric['unit']!r}")
        names = {c["name"] for c in result["checks"]}
        expected = SEARCH_CHECKS | ({"trace_step_coverage"} if trace else set())
        if names != expected:
            problems.append(f"trace={int(trace)}: checks {sorted(names)} != {sorted(expected)}")
        for c in result["checks"]:
            print(f"tiny trace={int(trace)} check {c['name']}: "
                  f"{'ok' if c['ok'] else 'FAILED'} ({c['detail']})")

    cfg = config.config_from_text(bench.TINY.config_text(0))
    net = build_supernet(cfg.make_supernet_config(), cfg.make_spectral_config())
    for state in ("adjust skipped", "adjusted to convergence"):
        if state != "adjust skipped":
            net.begin_step()
            net.adjust_all()
            checks.converge_sampled(net)
        for name, ok, detail in (checks.check_estimate(net)[0], checks.check_sigma(net)):
            print(f"{name}, {state}: {'passed' if ok else 'rejected'} ({detail})")
            if ok != (state != "adjust skipped"):
                problems.append(f"{name} {'accepted' if ok else 'rejected'} a net {state}")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
