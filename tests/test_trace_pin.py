"""The synthetic generator, pinned op for op.

Every campaign's numbers start from :class:`SyntheticTraceGenerator`, so
a change that moves one random draw moves every simulated count after
it.  Each digest below covers every field of every op the generator
emits for one standard profile at two seeds and four lengths; a change
to the generator's walk, its skeleton or ``MicroOp`` construction that
reorders, drops or adds a draw fails here under the profile's name.

To inspect a mismatch, compare ``op_fields`` of the old and new traces.
"""

import hashlib

import pytest

from repro.workloads.profiles import STANDARD_PROFILES
from repro.workloads.synthetic import SyntheticTraceGenerator

SEEDS = (0, 5)
LENGTHS = (1, 600, 2000, 16000)

#: sha256 over ``op_fields`` of every op of every (seed, length) trace.
PINNED = {
    "specint-like":
        "771eb65a6ededf6d83938fc7ef9aa13ac35392ed68d4d6360e742ef81fb8783f",
    "specfp-like":
        "d58b0ac7d22373b43ffcbb68e8eff54840cbbc9481105b7afe959390c16f2dd8",
    "multimedia-like":
        "02be606c027783d63251c1159edd32ca05200f9e6013d8c797cffcee089685f5",
    "office-like":
        "affff2390431fcc63fb2833dda01a0df092a880d550d6dc8c695add13d953347",
    "server-like":
        "ff3fb8314974961f8b243c3ed8cebed594296b7fd8ae71aced6b7544fc5e5fb2",
    "kernel-like":
        "7c0adeb045cc5ca591a0019e069d5b0835a0356f3495b6bf7d22980758517532",
}


def op_fields(op) -> tuple:
    """Every field a ``MicroOp`` carries, enum members by value."""
    return (op.index, op.opcode.value, op.opclass.value, op.dest,
            op.srcs, op.imm, op.pc, op.mem_addr, op.taken, op.target,
            op.golden_result, op.store_value, op.is_load, op.is_store,
            op.is_control, op.is_call, op.is_return)


def profile_digest(profile) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        for length in LENGTHS:
            trace = SyntheticTraceGenerator(profile, seed=seed) \
                .generate(length)
            assert len(trace.ops) == length
            digest.update(f"{trace.name}:{length}\n".encode())
            for op in trace.ops:
                digest.update(repr(op_fields(op)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("profile", STANDARD_PROFILES,
                         ids=[profile.name for profile in STANDARD_PROFILES])
def test_generator_matches_pinned_digest(profile):
    assert profile_digest(profile) == PINNED[profile.name]


def test_every_standard_profile_is_pinned():
    assert set(PINNED) == {profile.name for profile in STANDARD_PROFILES}
