import hypothesis
from hypothesis import strategies as st

from arborpack.graphcore import normalize

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@st.composite
def digraphs(draw, min_n=2, max_n=8, max_m=24, max_cap=1):
    """Random normalized DirectedGraph with source 0."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(0, max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, max_cap),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return normalize(edges, n, 0)


def refines(fine, coarse) -> bool:
    """True if every component of partition `fine` lies inside one
    component of `coarse`."""
    return all(len({coarse.comp_of[v] for v in comp}) == 1 for comp in fine.components)
