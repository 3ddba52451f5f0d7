import numpy as np
import pytest

from robustfolio.market import (MarketError, NoiseIncrements, PathParams,
                                ReferenceMarket, StudentTMarket, TimeGrid,
                                make_noisy_pool, repair_psd, simulate_euler,
                                simulate_student_t)


@pytest.fixture(scope="module")
def grid65():
    return TimeGrid.uniform(1.0, 65)


@pytest.fixture(scope="module")
def market_1d():
    return ReferenceMarket(drift=[0.035], vol=[[0.25]], rate=0.015, s0=[1.0])


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(1.0, 65)
        assert g.dt.shape == (65,)
        assert np.allclose(g.dt, 1.0 / 65)
        assert np.isclose(g.times[-1], 1.0)
        assert g.times[0] == 0.0

    def test_nonuniform_must_sum_to_horizon(self):
        TimeGrid(horizon=1.0, n_steps=2, dt=np.array([0.25, 0.75]))
        with pytest.raises(MarketError):
            TimeGrid(horizon=1.0, n_steps=2, dt=np.array([0.25, 0.5]))
        with pytest.raises(MarketError):
            TimeGrid(horizon=1.0, n_steps=2, dt=np.array([1.5, -0.5]))


class TestReferenceMarket:
    def test_from_cov_round_trip(self):
        cov = np.array([[0.0625, 0.01], [0.01, 0.04]])
        mkt = ReferenceMarket(drift=[0.03, 0.05], vol=np.linalg.cholesky(cov),
                              rate=0.015, s0=[1.0, 1.0])
        assert np.allclose(mkt.cov, cov)
        assert mkt.d == 2

    def test_positive_prices_required(self):
        with pytest.raises(MarketError):
            ReferenceMarket(drift=[0.0], vol=[[0.2]], rate=0.0, s0=[0.0])


class TestIncrements:
    def test_standard_normal_before_scaling(self):
        inc = NoiseIncrements.generate(3, 2000, 10, 2)
        assert abs(inc.z.mean()) < 0.01
        assert abs(inc.z.std() - 1.0) < 0.01

    def test_same_seed_bit_identical(self):
        a = NoiseIncrements.generate(5, 50, 8, 3)
        b = NoiseIncrements.generate(5, 50, 8, 3)
        assert np.array_equal(a.z, b.z)

    def test_counter_based_chunking(self):
        # two chunks must agree bit-exactly with one serial pass
        whole = NoiseIncrements.generate(7, 9, 5, 2)
        parts = np.concatenate([
            NoiseIncrements.generate(7, 4, 5, 2, first_path=0).z,
            NoiseIncrements.generate(7, 5, 5, 2, first_path=4).z,
        ])
        assert np.array_equal(whole.z, parts)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("first_path", [0, 1000])
    def test_matches_fresh_philox_per_path(self, d, first_path):
        inc = NoiseIncrements.generate(13, 6, 7, d, first_path=first_path)
        for i in range(6):
            gen = np.random.Generator(np.random.Philox(key=[13, first_path + i]))
            assert inc.z[i].tobytes() == gen.standard_normal((7, d)).tobytes()

    def test_seed_range_enforced(self):
        for seed in (-1, 2**63):
            with pytest.raises(MarketError, match="seed"):
                NoiseIncrements.generate(seed, 1, 2, 1)

    def test_brownian_scaling(self, grid65):
        inc = NoiseIncrements.generate(1, 10, 65, 1)
        dw = inc.brownian(grid65)
        assert np.allclose(dw, inc.z * np.sqrt(1.0 / 65))

    def test_save_load_round_trip(self, tmp_path):
        inc = NoiseIncrements.generate(11, 17, 6, 3)
        path = tmp_path / "inc.bin"
        inc.save(path)
        back = NoiseIncrements.load(path)
        assert back.seed == 11
        assert np.array_equal(back.z, inc.z)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!" + b"\0" * 64)
        with pytest.raises(MarketError, match="magic"):
            NoiseIncrements.load(path)


    def test_truncated_payload_rejected_with_sizes(self, tmp_path):
        path = tmp_path / "inc.bin"
        NoiseIncrements.generate(11, 4, 6, 2).save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(MarketError, match=r"inc\.bin.*384-byte.*376 bytes"):
            NoiseIncrements.load(path)
        path.write_bytes(data + b"\0" * 8)
        with pytest.raises(MarketError, match="392 bytes"):
            NoiseIncrements.load(path)
        path.write_bytes(data[:20])
        with pytest.raises(MarketError, match="truncated header"):
            NoiseIncrements.load(path)


class TestEuler:
    def test_zero_noise_compounds_exactly(self, grid65, market_1d):
        inc = NoiseIncrements(z=np.zeros((4, 65, 1)), seed=0)
        params = PathParams(mu_path=np.full((65, 1), 0.035),
                            sigma_path=np.zeros((65, 1, 1)))
        batch = simulate_euler(grid65, params, [1.0], inc)
        expected = (1.0 + 0.035 / 65) ** 65
        assert np.allclose(batch.terminal, expected, rtol=1e-14)

    def test_zero_everything_is_identity(self, grid65):
        inc = NoiseIncrements(z=np.zeros((3, 65, 1)), seed=0)
        params = PathParams(mu_path=np.zeros((65, 1)),
                            sigma_path=np.full((65, 1, 1), 0.25))
        batch = simulate_euler(grid65, params, [1.0], inc)
        assert np.array_equal(batch.s, np.ones_like(batch.s))

    def test_mean_terminal_price_matches_recursion_mean(self, grid65, market_1d):
        # E S_{n+1} = E S_n (1 + mu dt) exactly, since increments are centered
        inc = NoiseIncrements.generate(42, 100_000, 65, 1)
        batch = simulate_euler(grid65, market_1d.params(), market_1d.s0, inc)
        target = (1.0 + 0.035 / 65) ** 65
        st = batch.terminal[:, 0]
        se = st.std(ddof=1) / np.sqrt(len(st))
        assert abs(st.mean() - target) < 3 * se

    def test_same_seed_reproducible(self, grid65, market_1d):
        a = simulate_euler(grid65, market_1d.params(), market_1d.s0,
                           NoiseIncrements.generate(9, 50, 65, 1))
        b = simulate_euler(grid65, market_1d.params(), market_1d.s0,
                           NoiseIncrements.generate(9, 50, 65, 1))
        assert np.array_equal(a.s, b.s)

    def test_price_floor_flags_paths(self):
        grid = TimeGrid.uniform(1.0, 4)
        inc = NoiseIncrements(z=np.full((2, 4, 1), -3.0), seed=0)
        params = PathParams(mu_path=np.zeros((4, 1)),
                            sigma_path=np.full((4, 1, 1), 2.0))
        batch = simulate_euler(grid, params, [1.0], inc)
        assert batch.floored.all()
        assert batch.s.min() > 0

    def test_dimension_mismatch_rejected(self, grid65, market_1d):
        inc = NoiseIncrements.generate(1, 5, 65, 2)
        with pytest.raises(MarketError):
            simulate_euler(grid65, market_1d.params(), market_1d.s0, inc)

    def test_nonfinite_params_rejected(self, grid65):
        inc = NoiseIncrements.generate(1, 5, 65, 1)
        params = PathParams(mu_path=np.full((65, 1), np.nan),
                            sigma_path=np.zeros((65, 1, 1)))
        with pytest.raises(MarketError, match="non-finite"):
            simulate_euler(grid65, params, [1.0], inc)

    def test_quadratic_covariation_error_shrinks_with_steps(self, market_1d):
        # mean |QCV(log S) - cov * T| should fall roughly like N^(-1/2)
        errs = []
        for n_steps in (65, 260, 1040):
            grid = TimeGrid.uniform(1.0, n_steps)
            inc = NoiseIncrements.generate(77, 20_000, n_steps, 1)
            batch = simulate_euler(grid, market_1d.params(), market_1d.s0, inc)
            dlog = np.diff(np.log(batch.s[:, :, 0]), axis=1)
            qcv = (dlog ** 2).sum(axis=1)
            errs.append(np.abs(qcv - market_1d.cov[0, 0]).mean())
        assert errs[0] > errs[1] > errs[2]


class TestNoisyPool:
    def test_zero_scales_reproduce_reference_all_kinds(self, grid65, market_1d):
        for kind in ("constant", "non_constant", "cumulative"):
            pool = make_noisy_pool(market_1d, kind, 0.0, 0.0, 3, grid65, seed=1)
            for sc in pool:
                assert np.array_equal(sc.sigma_path,
                                      np.tile(market_1d.vol, (65, 1, 1)))
                assert np.array_equal(sc.mu_path,
                                      np.tile(market_1d.drift, (65, 1)))

    def test_constant_kind_is_constant_with_matching_spread(self, grid65):
        mkt = ReferenceMarket(drift=[0.035, 0.035],
                              vol=[[0.25, 0.0], [0.0, 0.25]],
                              rate=0.015, s0=[1.0, 1.0])
        pool = make_noisy_pool(mkt, "constant", 0.15, 0.01, 10_000, grid65, seed=2)
        first = np.stack([sc.sigma_path[0] for sc in pool])
        for sc in pool[:50]:
            assert np.array_equal(sc.sigma_path, np.tile(sc.sigma_path[0], (65, 1, 1)))
        spread = (first - mkt.vol).std()
        assert abs(spread - 0.15) / 0.15 < 0.05

    def test_cumulative_starts_at_reference_ends_at_scale(self, grid65, market_1d):
        pool = make_noisy_pool(market_1d, "cumulative", 0.075, 0.01, 4000,
                               grid65, seed=3)
        assert all(np.array_equal(sc.sigma_path[0], market_1d.vol) for sc in pool)
        last = np.stack([sc.sigma_path[-1, 0, 0] for sc in pool])
        assert abs(last.std() - 0.075) / 0.075 < 0.05
        last_mu = np.stack([sc.mu_path[-1, 0] for sc in pool])
        assert abs(last_mu.std() - 0.01) / 0.01 < 0.05

    def test_non_constant_redraws_per_step(self, grid65, market_1d):
        sc = make_noisy_pool(market_1d, "non_constant", 0.1, 0.0, 1, grid65,
                             seed=4)[0]
        assert not np.array_equal(sc.sigma_path[0], sc.sigma_path[1])

    def test_paper_test_pool_configuration(self, grid65, market_1d):
        # evaluation pool: vol std 0.075, drift std 0.01, 1000 scenarios
        pool = make_noisy_pool(market_1d, "cumulative", 0.075, 0.01, 1000,
                               grid65, seed=5)
        assert len(pool) == 1000
        # cumulative: every scenario starts at the reference market
        assert all(np.array_equal(sc.sigma_path[0], market_1d.vol) for sc in pool)
        assert all(np.array_equal(sc.mu_path[0], market_1d.drift) for sc in pool)

    def test_invalid_arguments(self, grid65, market_1d):
        with pytest.raises(MarketError):
            make_noisy_pool(market_1d, "weird", 0.1, 0.1, 2, grid65, 0)
        with pytest.raises(MarketError):
            make_noisy_pool(market_1d, "constant", -0.1, 0.1, 2, grid65, 0)
        with pytest.raises(MarketError):
            make_noisy_pool(market_1d, "constant", 0.1, 0.1, 0, grid65, 0)

    def test_pool_prefix_is_stable(self, grid65, market_1d):
        small = make_noisy_pool(market_1d, "cumulative", 0.1, 0.01, 3, grid65, 6)
        big = make_noisy_pool(market_1d, "cumulative", 0.1, 0.01, 6, grid65, 6)
        for a, b in zip(small, big):
            assert np.array_equal(a.sigma_path, b.sigma_path)


def test_repair_psd_clips_negative_eigenvalues():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    fixed = repair_psd(mat)
    assert np.linalg.eigvalsh(fixed).min() >= 0
    assert np.allclose(fixed, fixed.T)
    good = np.array([[2.0, 0.1], [0.1, 1.0]])
    assert np.allclose(repair_psd(good), good)


class TestStudentT:
    def test_zero_scale_deterministic_growth(self, grid65):
        m = StudentTMarket(nu=5.0, mu=0.1, scale=0.0, rate=0.03)
        batch = simulate_student_t(m, grid65, 1.0, 3, seed=0)
        assert np.allclose(batch.terminal, np.exp(0.1), rtol=1e-12)

    def test_gaussian_limit_kurtosis(self):
        grid = TimeGrid.uniform(1.0, 100)
        m = StudentTMarket(nu=1e6, mu=0.0, scale=0.25, rate=0.0)
        batch = simulate_student_t(m, grid, 1.0, 10_000, seed=1)
        lr = np.diff(np.log(batch.s[:, :, 0]), axis=1).ravel()
        kurt = np.mean((lr - lr.mean()) ** 4) / np.var(lr) ** 2
        assert abs(kurt - 3.0) / 3.0 < 0.05

    def test_heavy_tail_for_small_nu(self):
        grid = TimeGrid.uniform(1.0, 100)
        m = StudentTMarket(nu=3.5, mu=0.0, scale=0.25, rate=0.0)
        batch = simulate_student_t(m, grid, 1.0, 10_000, seed=2)
        lr = np.diff(np.log(batch.s[:, :, 0]), axis=1).ravel()
        excess = np.mean((lr - lr.mean()) ** 4) / np.var(lr) ** 2 - 3.0
        assert excess > 1.0

    def test_prices_stay_positive(self, grid65):
        m = StudentTMarket(nu=3.5, mu=0.1, scale=0.35, rate=0.03)
        batch = simulate_student_t(m, grid65, 1.0, 2000, seed=3)
        assert (batch.s > 0).all()

    def test_nu_must_exceed_two(self):
        with pytest.raises(MarketError):
            StudentTMarket(nu=2.0, mu=0.1, scale=0.35, rate=0.03)
