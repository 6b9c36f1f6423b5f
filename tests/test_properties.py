import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wfcoalg import (Carrier, Coalgebra, FinMap, Subobject, all_subsets,
                     element_key, eval_obj, next_time, wf_part)

from generators import bounded_functor, random_coalgebra
from setalg import compose, direct_image, inverse_image

elements = st.one_of(st.integers(-5, 5), st.text("abc", max_size=2),
                     st.booleans())


def carriers(min_size=0, max_size=5):
    return st.lists(elements, min_size=min_size, max_size=max_size,
                    unique=True).map(lambda xs: Carrier(tuple(xs)))


@st.composite
def finmaps(draw, dom=None, cod=None):
    dom = dom or draw(carriers())
    cod = cod or draw(carriers(min_size=1))
    values = tuple(draw(st.sampled_from(cod.elements)) for _ in dom)
    return FinMap(dom, cod, values)


@st.composite
def coalgebras(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.integers(1, 4))
    functor = bounded_functor(rng, depth=2, carrier_size=size, size_cap=512)
    return random_coalgebra(rng, functor, Carrier(tuple(range(size))))


@given(st.lists(elements, max_size=8))
def test_element_key_is_a_total_order(xs):
    once = sorted(xs, key=element_key)
    assert sorted(once, key=element_key) == once
    for a, b in zip(once, once[1:]):
        assert element_key(a) <= element_key(b)


@given(finmaps())
def test_identity_is_neutral_for_composition(f):
    assert compose(f, FinMap.identity(f.dom)) == f
    assert compose(FinMap.identity(f.cod), f) == f


@given(finmaps(), st.data())
def test_direct_and_inverse_images_are_adjoint(f, data):
    t_members = data.draw(st.sets(st.sampled_from(f.dom.elements))
                          if f.dom.elements else st.just(set()))
    s_members = data.draw(st.sets(st.sampled_from(f.cod.elements)))
    t = Subobject(f.dom, frozenset(t_members))
    s = Subobject(f.cod, frozenset(s_members))
    assert (direct_image(f, t) <= s) == (t <= inverse_image(f, s))


@settings(max_examples=60, deadline=None)
@given(coalgebras(), st.data())
def test_next_time_is_monotone(coalg, data):
    members = sorted(coalg.carrier.elements)
    s = frozenset(data.draw(st.sets(st.sampled_from(members))))
    t = s | frozenset(data.draw(st.sets(st.sampled_from(members))))
    small = next_time(coalg, Subobject(coalg.carrier, s))
    large = next_time(coalg, Subobject(coalg.carrier, t))
    assert small <= large


@settings(max_examples=60, deadline=None)
@given(coalgebras())
def test_wf_part_is_a_fixed_point_below_all_others(coalg):
    part = wf_part(coalg).part
    assert next_time(coalg, part) == part
    for s in all_subsets(coalg.carrier):
        if next_time(coalg, s) == s:
            assert part <= s
