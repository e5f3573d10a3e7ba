"""Top-level package surface: public names resolve without submodule imports."""

import swiptcran


class TestPublicApi:
    def test_all_names_resolve(self):
        assert swiptcran.__all__
        for name in swiptcran.__all__:
            assert getattr(swiptcran, name) is not None

    def test_core_workflow_reachable_from_top_level(self):
        topo = swiptcran.generate_topology(seed=42, n_rrh=3, n_it=3, n_et=3)
        channels = swiptcran.draw_channels(topo, seed=42, slot=0)
        instance = swiptcran.Instance(topo, channels, swiptcran.SystemParams())
        result = swiptcran.algorithm2(instance)
        assert result.termination is swiptcran.Termination.FIXED_POINT
        assert result.report.feasible
