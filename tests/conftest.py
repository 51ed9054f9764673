import numpy as np
import pytest
from hypothesis import settings

from pkregion import load_pmf

DATA = __file__.rsplit("/", 2)[0] + "/data"

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; no deadline, since the time of one example on a busy
# machine says nothing about the code.
settings.register_profile("pkregion", derandomize=True, max_examples=100,
                          deadline=None)
settings.load_profile("pkregion")

# one line per acceptance criterion, printed after the run (uncaptured)
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def rng_for(seed, index=0):
    """One independent generator per (seed, index), reproducibly."""
    return np.random.default_rng((seed, index))


def random_pmf(rng, cards=None, names=("X", "Y", "Z")):
    """Full-support random joint pmf with the given (or random) cardinalities."""
    if cards is None:
        cards = tuple(int(rng.integers(2, 5)) for _ in names)
    table = rng.random(cards)
    table /= table.sum()
    return load_pmf(table, names, cards)


def random_pair_pmf(rng, support_density=0.6, max_card=4):
    """Two-variable pmf over a random support pattern (never empty)."""
    cy = int(rng.integers(2, max_card + 1))
    cz = int(rng.integers(2, max_card + 1))
    mask = rng.random((cy, cz)) < support_density
    if not mask.any():
        mask[rng.integers(cy), rng.integers(cz)] = True
    table = np.where(mask, rng.random((cy, cz)), 0.0)
    if table.sum() <= 0.0:
        table = mask.astype(float)
    table /= table.sum()
    return load_pmf(table, ("Y", "Z"), (cy, cz))


def det_correlated_pmf(rng, max_components=3, max_block=2, x_card=3):
    """Source where Y and Z are conditionally independent given their common
    part: block-diagonal pair support with product weights inside each block,
    and an arbitrary X conditional per cell."""
    m = int(rng.integers(1, max_components + 1))
    y_sizes = [int(rng.integers(1, max_block + 1)) for _ in range(m)]
    z_sizes = [int(rng.integers(1, max_block + 1)) for _ in range(m)]
    q = rng.dirichlet(np.ones(m))
    table = np.zeros((x_card, sum(y_sizes), sum(z_sizes)))
    y0 = z0 = 0
    for c in range(m):
        wy = rng.dirichlet(np.ones(y_sizes[c]))
        wz = rng.dirichlet(np.ones(z_sizes[c]))
        for i in range(y_sizes[c]):
            for j in range(z_sizes[c]):
                wx = rng.dirichlet(np.ones(x_card))
                table[:, y0 + i, z0 + j] = q[c] * wy[i] * wz[j] * wx
        y0 += y_sizes[c]
        z0 += z_sizes[c]
    table /= table.sum()
    return load_pmf(table, ("X", "Y", "Z"), table.shape), m


def pmf_as_dict(p):
    """JointPmf -> plain dict keyed by index tuples, for the oracles."""
    out = {}
    for idx in np.ndindex(*p.cardinalities):
        pr = float(p.probs[idx])
        if pr > 0.0:
            out[idx] = pr
    return out


def worked_pmf():
    """Two shared uniform bits plus a third revealed only as a parity."""
    table = np.zeros((4, 4, 4))
    for v in (0, 1):
        for w in (0, 1):
            for wp in (0, 1):
                table[2 * v + (w ^ wp), 2 * v + w, 2 * v + wp] += 0.125
    return load_pmf(table, ("X", "Y", "Z"), (4, 4, 4))


def bsc_pmf(flip=0.1):
    """X = Y a uniform bit, Z a noisy copy of it."""
    table = np.zeros((2, 2, 2))
    for y in (0, 1):
        for z in (0, 1):
            table[y, y, z] = 0.5 * (1.0 - flip if y == z else flip)
    return load_pmf(table, ("X", "Y", "Z"), (2, 2, 2))


def independent_pmf():
    table = np.full((2, 2, 2), 0.125)
    return load_pmf(table, ("X", "Y", "Z"), (2, 2, 2))


def square_pmf():
    """X carries both shared bits: X = (Y, Z) with Y, Z iid uniform."""
    table = np.zeros((4, 2, 2))
    for y in (0, 1):
        for z in (0, 1):
            table[2 * y + z, y, z] = 0.25
    return load_pmf(table, ("X", "Y", "Z"), (4, 2, 2))


# Each report schema's top-level fields in emission order, then the fields
# of each nested object by its name, and those of every non-null region.
REPORT_HEAD = ("schema", "tool", "config")
TIGHTNESS_FIELDS = ("mcf_components", "det_correlated", "ci_residual")
REPORT_FIELDS = {
    "pkregion-regions-v4": (*REPORT_HEAD, "quantities", *TIGHTNESS_FIELDS,
                            "regions", "gaps"),
    "pkregion-check-v4": (*REPORT_HEAD, *TIGHTNESS_FIELDS),
    "pkregion-evaluation-v2": (*REPORT_HEAD, "evaluation", "eps", "eps_pk",
                               "rate_point", "in_outer_region"),
}
NESTED_FIELDS = {
    "tool": ("name", "version"),
    "quantities": ("i_x_y_given_z", "i_x_z_given_y", "i_x_yz", "i_x_mss_y",
                   "i_x_mss_z", "i_x_common"),
    "regions": ("outer", "inner", "exact"),
    "gaps": ("area", "hausdorff"),
    "evaluation": ("error_xy", "error_xz", "leak_xy", "leak_xz", "unif_xy",
                   "unif_xz", "rate_xy", "rate_xz"),
    "eps_pk": ("xy", "xz"),
}
REGION_FIELDS = ("provenance", "cap_xy", "cap_xz", "cap_sum", "vertices")


def assert_report_fields(doc, schema):
    """``doc`` is a ``schema`` report that holds that schema's fields, and
    no others, in emission order."""
    assert doc["schema"] == schema
    assert tuple(doc) == REPORT_FIELDS[schema]
    for name, value in doc.items():
        if name in NESTED_FIELDS:
            assert tuple(value) == NESTED_FIELDS[name], name
    for region in doc.get("regions", {}).values():
        assert region is None or tuple(region) == REGION_FIELDS


@pytest.fixture
def worked_source():
    return worked_pmf()


@pytest.fixture
def bsc_source():
    return bsc_pmf()


@pytest.fixture
def independent_source():
    return independent_pmf()


@pytest.fixture
def square_source():
    return square_pmf()


@pytest.fixture
def data_dir():
    return DATA
