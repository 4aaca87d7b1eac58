"""Coset enumeration, realization, and word handling."""

import copy
import dataclasses

import pytest

from grouplab.catalog import builtin
from grouplab.errors import CosetLimitExceeded, ValidationError
from grouplab.fpgroups import (
    Presentation,
    Realization,
    cyclic_reduce,
    free_reduce,
    preprocess_relators,
    presentation_from_json,
    presentation_to_json,
    realize,
    relator_key,
    todd_coxeter,
    word_columns,
)
from grouplab.groups import find_isomorphism
from grouplab.wedge import WedgeVariant, build_wedge_presentation, compute_wedge, hom_from_generator_images
from word_reference import two_pass_finish, unfinished_table, word_realize

Z3 = Presentation(1, ((1, 1, 1),), label="z3")
S3P = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)), label="s3")
D4P = Presentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, 1, 2)), label="d4")
Q8P = Presentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)), label="q8")
TRIV = Presentation(1, ((1,),), label="triv")


class TestWords:
    def test_free_reduce(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((1, 2, -2, 1)) == (1, 1)

    def test_cyclic_reduce(self):
        assert cyclic_reduce((-1, 2, 1)) == (2,)
        assert cyclic_reduce((1, 2, -1)) == (2,)
        assert cyclic_reduce((1, 2)) == (1, 2)

    def test_relator_key_identifies_rotations_and_inverse(self):
        assert relator_key((1, 2, 3)) == relator_key((2, 3, 1))
        assert relator_key((1, 2)) == relator_key((-2, -1))

    def test_preprocess_dedupes(self):
        rels = preprocess_relators([(1, 2, 3), (2, 3, 1), (-3, -2, -1), (1, -1)])
        assert rels == ((1, 2, 3),)

    def test_letter_range_checked(self):
        with pytest.raises(ValidationError):
            Presentation(1, ((2,),))

    @pytest.mark.parametrize("letter", [1.5, True, "1"])
    def test_letter_type_checked(self, letter):
        # each would reach todd_coxeter as a table index
        with pytest.raises(ValidationError, match="not an integer"):
            Presentation(2, ((1, letter),))


class TestToddCoxeter:
    def test_cyclic_relator(self):
        assert len(todd_coxeter(Z3).table) == 3

    def test_s3_presentation(self):
        assert len(todd_coxeter(S3P).table) == 6

    def test_whole_group_subgroup(self):
        assert len(todd_coxeter(Z3, subgroup_words=[(1,)]).table) == 1

    def test_trivial_presented_group(self):
        assert len(todd_coxeter(TRIV).table) == 1

    def test_relators_close_from_every_coset(self):
        for pres in (Z3, S3P, D4P, Q8P):
            table = todd_coxeter(pres)
            for a in range(len(table.table)):
                for w in pres.relators:
                    assert table.trace(a, word_columns(w)) == a

    def test_deterministic(self):
        t1 = todd_coxeter(S3P)
        t2 = todd_coxeter(S3P)
        assert t1.table == t2.table

    def test_raw_and_reduced_pairing_presentations_agree(self, corpus):
        checked = 0
        for G in corpus:
            if G.order > 16:
                continue
            for variant in WedgeVariant:
                wp = build_wedge_presentation(G, variant)
                raw = wp.raw_presentation()
                reduced = realize(wp.presentation, todd_coxeter(wp.presentation))
                full = realize(raw, todd_coxeter(raw))
                assert full.group.order == reduced.group.order, (G.label, variant)
                assert find_isomorphism(full.group, reduced.group) is not None, (G.label, variant)
                checked += 1
        assert checked == 2 * 32

    def test_coset_limit(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(S3P, max_cosets=2)

    def test_subgroup_index(self):
        # <a> inside s3 presentation: index 3
        table = todd_coxeter(S3P, subgroup_words=[(1,)])
        assert len(table.table) == 3

    @pytest.mark.parametrize(
        "word, match",
        [((0,), "out of range"), ((3,), "outside"), ((1.0,), "not an integer"), ((True,), "not an integer")],
    )
    def test_subgroup_words_are_checked_as_relators_are(self, word, match):
        # 0 read column -2 and gave index 2, 3 and 1.0 raised bare IndexError and TypeError, True read letter 1
        with pytest.raises(ValidationError, match=match):
            todd_coxeter(S3P, subgroup_words=[(1,), word])


class TestRealize:
    @pytest.mark.parametrize(
        "pres,name",
        [(Z3, "cyclic:3"), (S3P, "symmetric:3"), (D4P, "dihedral:4"), (Q8P, "quaternion8")],
    )
    def test_realization_matches_table_built_group(self, pres, name):
        parts = name.split(":")
        reference = builtin(parts[0], tuple(int(x) for x in parts[1:]))
        real = realize(pres, todd_coxeter(pres))
        assert real.group.order == reference.order
        assert real.group.order_multiset() == reference.order_multiset()
        assert find_isomorphism(real.group, reference) is not None

    def test_gen_images_generate(self):
        real = realize(S3P, todd_coxeter(S3P))
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in real.gen_images:
                y = real.group.mul[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == real.group.order

    def test_relators_evaluate_to_identity(self):
        real = realize(S3P, todd_coxeter(S3P))
        for w in S3P.relators:
            assert real.evaluate(w) == 0

    def test_empty_and_cancelling_words(self):
        real = realize(Z3, todd_coxeter(Z3))
        assert real.evaluate(()) == 0
        assert real.evaluate((1, -1)) == 0
        assert real.gen_images[0] != 0

    def test_realize_needs_trivial_subgroup(self):
        t = todd_coxeter(S3P, subgroup_words=[(1,)])
        with pytest.raises(ValidationError):
            realize(S3P, t)

    def test_realize_needs_the_table_of_its_presentation(self):
        # Z3's one generator on S3's table gave a group of order 6 that (1,) does not generate
        with pytest.raises(ValidationError, match="generators"):
            realize(Z3, todd_coxeter(S3P))

    @pytest.mark.parametrize("word", [(0,), (2,), (-2,), (1.0,), (True,)])
    def test_evaluated_words_are_checked(self, word):
        # letter 0 read the last generator
        with pytest.raises(ValidationError):
            realize(Z3, todd_coxeter(Z3)).evaluate(word)

    @pytest.mark.parametrize("images", [(7,), (-1,), (1.0,), ("1",), (True,)])
    def test_realization_checks_its_generator_images(self, images):
        # (7,) over a group of order 3 was accepted and failed later with a bare IndexError
        group = realize(Z3, todd_coxeter(Z3)).group
        with pytest.raises(ValidationError, match="not an integer or lies outside"):
            Realization(group=group, gen_images=images)

    def test_images_that_do_not_generate_are_rejected(self):
        wr = compute_wedge(builtin("symmetric", (4,)), WedgeVariant.CURLY)  # 7 letters, order 12
        real = wr.realization
        partial = dataclasses.replace(wr, realization=Realization(group=real.group, gen_images=real.gen_images[:1] * 7))
        with pytest.raises(ValidationError, match="reach 3 of the 12"):
            hom_from_generator_images(partial, real.group, partial.pair_table())


class TestWalksMatchWords:
    """Finishing and realization against the word-based references they replaced."""

    def test_small_presentations(self, monkeypatch, corpus):
        cases = [(pres, ()) for pres in (Z3, S3P, D4P, Q8P, TRIV)]
        cases += [(S3P, [(1,)]), (S3P, [(2,)]), (D4P, [(1, 1)]), (Q8P, [(2,)])]
        # trivial groups whose enumeration reaches the break after a coset dies mid-scan, the
        # path compression of CosetTable.rep and the second branch of coincidence, in that order
        cases += [
            (Presentation(2, ((2, 1, -2, 1, 2), (-1,))), ()),
            (Presentation(2, ((-1, -2, -2, -2, 1, 1, -2), (-2, -2, 1, 2, 1), (2,))), ()),
            (Presentation(3, ((-1, -1, -1), (1, 2), (3,), (1, -2))), ()),
        ]
        for G in corpus:
            if G.order <= 8:  # the raw pairing presentations, which merge many cosets
                cases += [(build_wedge_presentation(G, v).raw_presentation(), ()) for v in WedgeVariant]
        dead = 0
        for pres, words in cases:
            raw = unfinished_table(monkeypatch, pres, words)
            dead += sum(raw.p[a] != a for a in range(len(raw.p)))
            table = copy.deepcopy(raw)
            table.standardize()
            assert table.table == two_pass_finish(raw) == todd_coxeter(pres, words).table
            if not words:
                mul, gen_images, _ = word_realize(pres, table)
                real = realize(pres, table)
                assert real.group.mul == mul and real.gen_images == gen_images
        assert dead > 0  # the finish drops dead cosets


class TestPresentationJson:
    def test_round_trip(self):
        doc = presentation_to_json(S3P)
        assert presentation_from_json(doc) == S3P

    def test_malformed_rejected(self):
        for doc in (
            {"relators": [[1]]},
            {"num_generators": "a", "relators": []},
            {"num_generators": 1, "relators": [["x"]]},
            {"num_generators": -2, "relators": []},
            {"num_generators": 2.7, "relators": []},
            {"num_generators": True, "relators": []},
            {"num_generators": 2, "relators": [[1.9]]},
            {"num_generators": 2, "relators": [[True]]},
        ):
            with pytest.raises(ValidationError):
                presentation_from_json(doc)
        with pytest.raises(ValidationError, match="generator count -1 is not an integer or lies below 0"):
            Presentation(-1, ())
        for count in (1.5, True, "2"):
            with pytest.raises(ValidationError, match="integer"):
                Presentation(count, ())


@pytest.mark.parametrize("max_cosets", [0, -1])
def test_fpgroups_input_checks(max_cosets):
    pres = build_wedge_presentation(builtin("symmetric", (3,)), WedgeVariant.CURLY).presentation
    with pytest.raises(ValidationError, match=f"max_cosets {max_cosets} is not an integer or lies below 1"):
        todd_coxeter(pres, (), max_cosets=max_cosets)


@pytest.mark.parametrize("max_cosets", [2.5, True, "2", None])
def test_max_cosets_is_an_integer(max_cosets):
    # at the parent 2.5 and True were read as caps, "2" and None raised a bare TypeError
    with pytest.raises(ValidationError, match=f"max_cosets {max_cosets!r} is not an integer or lies below 1"):
        todd_coxeter(S3P, max_cosets=max_cosets)
