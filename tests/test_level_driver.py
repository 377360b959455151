"""Golden build accounting for the level-scan builders.

CMP-S, CMP-B, full CMP and the bagged CMP-S forest all run the same
level loop.  These pins hold each build's tree fingerprint together with
its exact cost-model counters and memory-ledger peak, so a change to the
loop's allocate/release order, its nid charging, its overflow refill or
its PUBLIC pass shows up here even when the trees still agree.
"""

import pytest

from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.compiled import tree_fingerprint
from repro.data.synthetic import generate_agrawal
from repro.ensemble.bagging import BaggedForestBuilder

CFG = BuilderConfig(n_intervals=24, max_depth=8, min_records=30)


def _bagged(cfg):
    return BaggedForestBuilder(cfg, n_trees=3)


#: name -> (builder factory, config, Agrawal function)
CASES = {
    "cmps_f2": (CMPSBuilder, CFG, "F2"),
    "cmps_f2_budget": (CMPSBuilder, CFG.with_(buffer_budget_bytes=1024), "F2"),
    "cmps_f2_public": (CMPSBuilder, CFG.with_(prune="public"), "F2"),
    "cmpb_f2": (CMPBBuilder, CFG, "F2"),
    "cmp_f7": (CMPBuilder, CFG, "F7"),
    "bagged_f2": (_bagged, CFG.with_(buffer_budget_bytes=4096), "F2"),
}

#: Counter order: peak memory, scans, pages read, aux reads, aux writes,
#: exact resolutions, two-level splits, predictions made, predictions
#: correct, linear splits, overflow rescans.
EXPECTED = {
    "cmps_f2": (
        ["a6721c89fd0b2f388f73906ac293285f6f21ac93c6ea24db82c407b9ce542821"],
        (77272, 10, 150, 27000, 27000, 46, 0, 0, 0, 0, 0),
    ),
    "cmps_f2_budget": (
        ["a6721c89fd0b2f388f73906ac293285f6f21ac93c6ea24db82c407b9ce542821"],
        (77272, 18, 270, 51000, 27000, 46, 0, 0, 0, 0, 8),
    ),
    "cmps_f2_public": (
        ["96c2000aa1a94b2a763d04e785cdc143720f9cb484ada905ffe4d6f8ba4e1da9"],
        (77272, 10, 150, 27000, 27000, 43, 0, 0, 0, 0, 0),
    ),
    "cmpb_f2": (
        ["ec57a2752ba9b721bff55899a154180d3864df7527e83b23a86fe00061cdfe77"],
        (240776, 10, 150, 27000, 27000, 49, 9, 42, 26, 0, 0),
    ),
    "cmp_f7": (
        ["a861d984bc9e215e5f6057fefdb47589884abf9826625f4d35fc68d0aabf4c54"],
        (235256, 10, 150, 27000, 27000, 38, 2, 40, 18, 2, 0),
    ),
    "bagged_f2": (
        [
            "9437f310e0ee13762d106e6a655518129bee69dc487b1227974e572092c6800a",
            "1fa9a39e8b8d90b3b137a43ee9650da1c568b345e8904e5872f60dc261d8d941",
            "8eb66f23d8ed3435706c718944cd45586c382de5e697ba423cc6632a537e3e53",
        ],
        (165224, 17, 255, 132000, 81000, 110, 0, 0, 0, 0, 7),
    ),
}


@pytest.fixture(scope="module")
def datasets():
    return {f: generate_agrawal(f, 3000, seed=11) for f in ("F2", "F7")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_accounting_is_pinned(name, datasets):
    make, cfg, function = CASES[name]
    result = make(cfg).build(datasets[function])
    s = result.stats
    trees = result.forest.members if hasattr(result, "forest") else [result.tree]
    fingerprints, counters = EXPECTED[name]
    assert [tree_fingerprint(t) for t in trees] == fingerprints
    assert (
        s.memory.peak,
        s.io.scans,
        s.io.pages_read,
        s.io.aux_records_read,
        s.io.aux_records_written,
        s.splits_resolved_exactly,
        s.two_level_splits,
        s.predictions_made,
        s.predictions_correct,
        s.linear_splits,
        s.buffer_overflow_rescans,
    ) == counters
