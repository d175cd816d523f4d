from functal import suites, tensor
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


def test_tensor_stab_suite_computes_each_stabilizer_once(monkeypatch):
    # each tensor_stab_suite call asks tensor.stab once per (functional, alpha)
    calls: list[list] = []
    real_suite, real_stab = suites.tensor_stab_suite, tensor.stab

    def suite(*args):
        calls.append([])
        return real_suite(*args)

    def counted_stab(f, alpha):
        calls[-1].append((f, alpha))
        return real_stab(f, alpha)

    monkeypatch.setattr(suites, "tensor_stab_suite", suite)
    monkeypatch.setattr(tensor, "stab", counted_stab)
    assert suites.tensor_stab_suite_all(0).passed
    assert len(calls) == 4
    assert all(len(c) == len(set(c)) for c in calls)
    assert sum(map(len, calls)) == 40
