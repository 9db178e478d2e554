"""Long-trace soak: the brute-force oracle after every event of one long trace.

    python3 scripts/soak.py [--length N] [--seed S]

Run from the root of a source checkout; the simulator is imported from
``src/`` and nothing outside the standard library is needed. Generates
gen_random_trace(S, length=N) (default 100,000 events), writes it with
serialize_trace and reads it back with parse_trace, printing the parse time
and the number of distinct lines. Replays the parsed events in multi-ept with
OracleChecker.verify after every event, then runs one uncached check_against
and verify_run over the whole report. Every 1,000th event, and once at the
end, it also checks that each context's own leaves lie on pages the live
facts claim, that the engine's pool records are exactly the ledger's live
pools, so no structure grows with the pages or pools the trace has ever had,
and that the ledger's claims map equals a derivation from its images,
processes and pools.

Prints the mean cost of the oracle checks that follow a layout change in an
early window (events 1,000-2,999) and a late one (the last 2,000 events),
their ratio, each context's own-leaf count at the end, and the process's peak
resident size (ru_maxrss) with its share per event, so runs at two lengths
show how memory grows with the trace. Exits 1 if the
parsed events differ from the generated ones, on any oracle mismatch,
verification violation, stray own leaf, stray pool record or stray claim,
else 0.
"""

import argparse
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memranger.address_space import pages_covering  # noqa: E402
from memranger.kernel_sim import (  # noqa: E402
    Simulation,
    gen_random_trace,
    parse_trace,
    serialize_trace,
)
from memranger.reference_oracle import (  # noqa: E402
    OracleChecker,
    check_against,
    rebuild,
    snapshot_from_map,
)
from memranger.report_cli import verify_run  # noqa: E402

EARLY = range(1_000, 3_000)
WINDOW = 2_000
LEAF_CHECK_EVERY = 1_000


def stray_pool_records(sim) -> int:
    """Pool records the engine holds that are not the ledger's live pools,
    plus live pools it holds no record of."""
    held = [pool for pools in sim.pools.values() for pool in pools.values()]
    live = sim.policy.pools
    stray = sum(live.get(pool.base) is not pool for pool in held)
    return stray + len(live) - (len(held) - stray)


def stray_claims(ledger) -> int:
    """Pages whose entry in the ledger's claims map differs from what its
    images, processes and pools derive, a page of pools with two owners
    shared, counting pages claimed on one side only."""
    want = {}
    for pid, regions in ledger.processes.items():
        for base, size in regions:
            want.update(dict.fromkeys(pages_covering(base, size), ("process", pid)))
    for eid, rec in ledger.enclaves.items():
        want.update(dict.fromkeys(pages_covering(rec.image_base, rec.image_size), ("image", eid)))
    owners: dict[int, set] = {}
    for pool in ledger.pools.values():
        for page in pages_covering(pool.base, pool.size):
            owners.setdefault(page, set()).add(pool.owner)
    for page, identities in owners.items():
        want[page] = ("pool", *identities) if len(identities) == 1 else ("shared", None)
    held = ledger._claims
    return sum(held.get(page) != claim for page, claim in want.items()) + len(held.keys() - want.keys())


def soak(seed: int, length: int) -> int:
    generated = gen_random_trace(seed, length=length)
    text = serialize_trace(generated)
    began = perf_counter()
    events = parse_trace(text)
    parsed = perf_counter() - began
    round_trip = events == generated
    print(f"codec: {length} events in {len(set(text.splitlines()))} distinct lines,"
          f" parse_trace {parsed:.2f} s, round trip {'equal' if round_trip else 'DIFFERS'}")
    late = range(length - WINDOW, length)
    sim = Simulation("multi-ept")
    checker = OracleChecker()
    costs: dict[str, list[float]] = {"early": [], "late": []}
    mismatches = stray = stray_pools = strays_claimed = 0
    began = perf_counter()
    for index, event in enumerate(events):
        version = sim.policy.layout_version
        sim.step(event)
        policy = sim.policy
        started = perf_counter()
        found = checker.verify(policy, policy.epts)
        spent = perf_counter() - started
        if policy.layout_version != version:
            window = "early" if index in EARLY else "late" if index in late else None
            if window:
                costs[window].append(spent)
        if found and not mismatches:
            print(f"first oracle mismatch after event {index}: {found[0]}")
        mismatches += len(found)
        if index % LEAF_CHECK_EVERY == LEAF_CHECK_EVERY - 1:
            claimed = checker.policy_for(policy).claims
            for ept_id, ept in policy.epts.items():
                outside = [page for page, _ in ept.materialized_leaves() if page not in claimed]
                if outside:
                    stray += len(outside)
                    print(f"event {index}: context {ept_id} holds {len(outside)} own leaves"
                          f" on unclaimed pages, first {outside[0]:#x}")
            stray_pools += stray_pool_records(sim)
            strays_claimed += stray_claims(policy)
    replayed = perf_counter() - began
    policy = sim.policy
    stray_pools += stray_pool_records(sim)
    strays_claimed += stray_claims(policy)
    swept = check_against(rebuild(snapshot_from_map(policy)), policy.epts)
    mismatches += len(swept)
    began = perf_counter()
    verdict = verify_run(events, sim.report())
    verified = perf_counter() - began

    print(f"soak: seed {seed}, {length} events; replay with the oracle after every event"
          f" {replayed:.1f} s, verify_run {verified:.1f} s")
    means = {}
    for window, spans in (("early", EARLY), ("late", late)):
        means[window] = statistics.fmean(costs[window]) * 1e3 if costs[window] else float("nan")
        print(f"layout-change checks, {window} (events {spans.start}-{spans.stop - 1}):"
              f" {len(costs[window])} at {means[window]:.3f} ms mean")
    print(f"late/early: {means['late'] / means['early']:.2f}")
    leaves = ", ".join(f"{ept_id}: {sum(1 for _ in ept.materialized_leaves())}"
                       for ept_id, ept in sorted(policy.epts.items()))
    print(f"own leaves per context: {leaves}; pages claimed: {len(checker.policy_for(policy).claims)}")
    counts = {k: v for k, v in verdict.summary().items() if k != "samples"}
    print(f"oracle mismatches {mismatches}, final sweep {len(swept)},"
          f" stray own leaves {stray}, stray pool records {stray_pools},"
          f" stray claims {strays_claimed}, verification {counts}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024   # Linux counts KiB
    print(f"peak RSS {peak / 2**20:.1f} MiB, {peak / length:.0f} B per event")
    clean = (round_trip and not mismatches and not stray and not stray_pools
             and not strays_claimed and verdict.ok)
    print("PASS" if clean else "FAIL")
    return 0 if clean else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.length < EARLY.stop + WINDOW:
        parser.error(f"--length must be at least {EARLY.stop + WINDOW}")
    return soak(args.seed, args.length)


if __name__ == "__main__":
    sys.exit(main())
