from functal.gallery import gallery_algebras
from functal.spectrum import char_poly_raw
from functal.suites import _rational_spectrum_pairs, vk_props_suite


def test_rational_spectrum_pairs_redraw_degenerate_functionals():
    # these seeds' first draw for ut3 (seed 32) or ut2 (x) ut2 has chi = 0
    algs = gallery_algebras()
    for seed in (32, 56, 69, 70, 80):
        for name, f, rep in _rational_spectrum_pairs(algs, seed):
            assert not char_poly_raw(f).is_zero(), (seed, name)
            assert not rep.degenerate, (seed, name)
    assert vk_props_suite(32).passed
