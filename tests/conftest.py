"""Shared fixtures: the shipped corpus (the catalog/ directory) and cached pairing realizations."""

from pathlib import Path

import pytest

from grouplab.catalog import load_catalog
from grouplab.isoclinism import are_isoclinic, partition_into_families
from grouplab.wedge import WedgeVariant, compute_wedge


@pytest.fixture(scope="session")
def corpus():
    return load_catalog(Path(__file__).resolve().parent.parent / "catalog")


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {g.label: g for g in corpus}


@pytest.fixture(scope="session")
def curly_wedges(corpus):
    return {g.label: compute_wedge(g, WedgeVariant.CURLY) for g in corpus}


@pytest.fixture(scope="session")
def exterior_wedges(corpus):
    # raised cap so the order-27 and order-24 corpus members realize too
    return {
        g.label: compute_wedge(g, WedgeVariant.EXTERIOR, group_cap=32) for g in corpus
    }


@pytest.fixture(scope="session")
def families(corpus):
    return partition_into_families(corpus)


@pytest.fixture(scope="session")
def family_witnesses(corpus, families):
    """One verified witness per within-family pair, keyed by index pair."""
    out = {}
    for fam in families:
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                i, j = fam[a], fam[b]
                w = are_isoclinic(corpus[i], corpus[j])
                assert w is not None, (corpus[i].label, corpus[j].label)
                out[(i, j)] = w
    return out
