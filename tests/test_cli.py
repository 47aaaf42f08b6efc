import csv
import functools
import io
import json

import numpy as np
import pytest

from shallownet import linalg, measurement, states, uncertainty
from shallownet.cli import main
from shallownet.dsl import serialize
from shallownet.linalg import SIGMA_X, operator_norm
from shallownet.measurement import (
    build_parity_conjugator, conjugated_strong_measure, parity_measure_exact,
    random_product_projection, sample_outcome, spectral_decompose, weak_measure_product,
)
from shallownet.network import apply, cat_ladder, invert_unitary, random_shallow
from shallownet.sweeps import trial_seed
from shallownet.uncertainty import (
    AveragingObservable, SiteObservable, commutator_expectation, random_site_observable,
)


@pytest.fixture()
def ladder8(tmp_path):
    path = tmp_path / "ladder8.qnet"
    path.write_text(serialize(cat_ladder(3, include_prologue=True)))
    return str(path)


@pytest.fixture()
def ladder16(tmp_path):
    path = tmp_path / "ladder16.qnet"
    path.write_text(serialize(cat_ladder(4, include_prologue=True)))
    return str(path)


@pytest.fixture()
def witness_calls(monkeypatch):
    """Every call of ``uncertainty.commutator_witness``, which still runs."""
    calls = []
    real = uncertainty.commutator_witness

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(uncertainty, "commutator_witness", spy)
    return calls


@pytest.fixture()
def qutrit_state_file(tmp_path):
    rho = states.random_density_state(2, 3, np.random.default_rng(5), rank=2)
    path = tmp_path / "qutrits.json"
    path.write_text(states.state_to_json(rho))
    return str(path)


def complex_matrix(pairs, dim):
    return np.array([complex(re, im) for re, im in pairs]).reshape(dim, dim)


@pytest.fixture()
def empty_circuit(tmp_path):
    path = tmp_path / "empty.qnet"
    path.write_text("qubits 3\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSimulate:
    def test_ladder_reaches_cat(self, capsys, ladder8):
        code, report = run_json(capsys, ["simulate", ladder8, "--input", "zeros"])
        assert code == 0
        assert report["fidelity_to_cat"] >= 1 - 1e-10
        assert report["e_lower"] == pytest.approx(1.0, abs=1e-6)
        assert report["depth"] == 3
        assert report["kind"] == "pure"

    def test_empty_circuit_passthrough(self, capsys, empty_circuit):
        code, report = run_json(capsys, ["simulate", empty_circuit, "--input", "zeros"])
        assert code == 0
        assert report["depth"] == 0
        assert report["purity"] == pytest.approx(1.0, abs=1e-10)
        assert report["variance"]["z"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qnet"
        bad.write_text("qubits 2\nstep\n  gate FLIP 1\n")
        assert main(["simulate", str(bad)]) == 2
        assert "unknown-gate" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["simulate", "no_such_file.qnet"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_tol_exits_2(self, capsys, empty_circuit, tol):
        assert main(["simulate", empty_circuit, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol must" in captured.err
        assert captured.out == ""

    def test_product_and_state_out(self, tmp_path, capsys, empty_circuit):
        out_state = tmp_path / "state.json"
        code, report = run_json(
            capsys,
            ["simulate", empty_circuit, "--input", "product:+,0,1",
             "--state-out", str(out_state)],
        )
        assert code == 0
        loaded = states.state_from_json(out_state.read_text())
        expect = 1 / np.sqrt(2)
        assert abs(loaded.amplitudes[0b001]) == pytest.approx(expect)
        assert abs(loaded.amplitudes[0b101]) == pytest.approx(expect)

    def test_mixture_input(self, tmp_path, capsys, empty_circuit):
        proj0 = states.state_to_dict(states.DensityState(1, 2, np.diag([1.0, 0.0])))
        proj1 = states.state_to_dict(states.DensityState(1, 2, np.diag([0.0, 1.0])))
        doc = {"terms": [
            {"weight": 0.5, "factors": [proj0] * 3},
            {"weight": 0.5, "factors": [proj1] * 3},
        ]}
        mix_file = tmp_path / "mix.json"
        mix_file.write_text(json.dumps(doc))
        code, report = run_json(
            capsys,
            ["simulate", empty_circuit, "--input", f"mixture:{mix_file}"],
        )
        assert code == 0
        assert report["kind"] == "density"
        assert report["purity"] == pytest.approx(0.5, abs=1e-10)


class TestErho:
    def test_cat_via_circuit(self, capsys, ladder8):
        code, report = run_json(capsys, ["erho", "--circuit", ladder8, "--input", "zeros"])
        assert code == 0
        assert report["e_lower"] == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed_state_file(self, tmp_path, capsys):
        rho = states.DensityState(2, 2, np.eye(4) / 4)
        path = tmp_path / "mixed.json"
        path.write_text(states.state_to_json(rho))
        code, report = run_json(capsys, ["erho", str(path)])
        assert code == 0
        assert report["e_lower"] <= 1e-10

    def test_zeros_baseline(self, capsys, tmp_path):
        circuit = tmp_path / "idle.qnet"
        circuit.write_text("qubits 8\n")
        code, report = run_json(capsys, ["erho", "--circuit", str(circuit)])
        assert code == 0
        assert report["e_lower"] == pytest.approx(1 / np.sqrt(8), abs=1e-4)
        assert report["variance_bound"] == pytest.approx(1 / np.sqrt(8), abs=1e-6)

    def test_default_report_has_no_witness(self, capsys, qutrit_state_file):
        code, report = run_json(capsys, ["erho", qutrit_state_file])
        assert code == 0
        assert "dual_b" not in report
        assert "witness_ref" not in report

    def test_witness_out_attains_e_lower(self, tmp_path, capsys, qutrit_state_file):
        witness_path = tmp_path / "witness.json"
        code, report = run_json(
            capsys, ["erho", qutrit_state_file, "--witness-out", str(witness_path)]
        )
        assert code == 0
        assert report["witness_ref"] == str(witness_path)
        b = complex_matrix(json.loads(witness_path.read_text())["dual_b"], 9)
        assert operator_norm(b) <= 1 + 1e-10
        with open(qutrit_state_file, encoding="utf-8") as fh:
            rho = states.state_from_json(fh.read())
        abar = AveragingObservable(SiteObservable(complex_matrix(report["maximizer"], 3)), 2)
        assert commutator_expectation(rho, abar, b) == pytest.approx(report["e_lower"], abs=1e-10)

    def test_witness_out_in_csv(self, tmp_path, capsys, qutrit_state_file):
        witness_path = tmp_path / "witness.json"
        assert main(["erho", qutrit_state_file, "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert "witness_ref" not in header
        argv = ["erho", qutrit_state_file, "--format", "csv", "--witness-out", str(witness_path)]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["witness_ref"] == str(witness_path)
        assert "dual_b" in json.loads(witness_path.read_text())


    def test_witness_built_only_on_request(self, tmp_path, capsys, qutrit_state_file,
                                           witness_calls):
        assert main(["erho", qutrit_state_file]) == 0
        assert len(witness_calls) == 0
        assert main(["erho", qutrit_state_file, "--witness-out", str(tmp_path / "w.json")]) == 0
        assert len(witness_calls) == 1

    def test_witness_refused_above_limit(self, tmp_path, capsys, ladder16, witness_calls):
        witness_path = tmp_path / "witness.json"
        assert main(["erho", "--circuit", ladder16, "--witness-out", str(witness_path)]) == 2
        captured = capsys.readouterr()
        assert "--witness-out" in captured.err
        assert "d = 65536" in captured.err
        assert captured.out == ""
        assert len(witness_calls) == 0
        assert not witness_path.exists()

    @pytest.mark.parametrize("doc, field", [
        ({"l": 2, "kind": "pure", "data": [[1, 0], [0, 0]]}, "'n'"),
        ({"n": 1, "l": 2, "kind": "pure", "data": [1, 0]}, "'data'"),
        ({"n": 1, "l": 2, "kind": "density", "data": [[1, 0]]}, "'data'"),
    ])
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["erho", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({}, "'terms'"),
        ({"terms": [{"factors": [{"n": 1, "l": 2, "kind": "pure", "data": [[1, 0], [0, 0]]}]}]},
         "'weight'"),
        ({"terms": [{"weight": 1.0, "factors": [{"l": 2, "kind": "pure", "data": [[1, 0], [0, 0]]}]}]},
         "terms[0].factors[0]: state JSON is missing field 'n'"),
    ])
    def test_malformed_mixture_exits_2(self, tmp_path, capsys, doc, field):
        circuit = tmp_path / "one.qnet"
        circuit.write_text("qubits 1\n")
        mix_file = tmp_path / "mix.json"
        mix_file.write_text(json.dumps(doc))
        assert main(["erho", "--circuit", str(circuit), "--input", f"mixture:{mix_file}"]) == 2
        assert field in capsys.readouterr().err

    def test_internal_error_exits_3(self, monkeypatch, tmp_path, capsys):
        from shallownet import cli as cli_module

        def broken(*args, **kwargs):
            raise RuntimeError("estimator fault")

        monkeypatch.setattr(cli_module.uncertainty, "estimate_e", broken)
        path = tmp_path / "zero.json"
        path.write_text(states.state_to_json(states.basis_state(1, 2)))
        assert main(["erho", str(path)]) == 3
        assert "internal error: RuntimeError: estimator fault" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--restarts", "0"], "restarts"),
        (["--restarts", "-2"], "restarts"),
        (["--grid-size", "-3"], "grid_size"),
        (["--max-iter", "-1"], "max_iter"),
        (["--tol", "nan"], "tol"),
        (["--tol", "-1"], "tol"),
    ])
    def test_invalid_search_setting_exits_2(self, capsys, qutrit_state_file, flags, field):
        assert main(["erho", qutrit_state_file, *flags]) == 2
        captured = capsys.readouterr()
        assert f"{field} must" in captured.err
        assert captured.out == ""


class TestVerify:
    def test_sweep_one_passes(self, capsys):
        code, report = run_json(
            capsys, ["verify", "1", "--trials", "6", "--seed", "3", "--noise", "0.1"]
        )
        assert code == 0
        assert report["all_pass"] is True
        assert len(report["rows"]) == 6
        assert {"trial", "seed", "n", "k", "noise", "lhs", "bound", "pass"} <= set(report["rows"][0])

    def test_sweep_two_passes(self, capsys):
        code, report = run_json(capsys, ["verify", "2", "--trials", "6", "--seed", "3"])
        assert code == 0
        assert report["all_pass"] is True

    def test_sweep_two_reaches_n16(self, capsys):
        code, report = run_json(
            capsys, ["verify", "2", "--n-list", "16", "--k-list", "2", "--trials", "1"]
        )
        assert code == 0
        (row,) = report["rows"]
        # the row's draws, in the order projection_bound_sweep makes them
        rng = np.random.default_rng(row["seed"])
        net = random_shallow(16, 2, rng, noise=0.0)
        projection = random_product_projection(16, 2, rng)
        c = random_site_observable(2, rng).centered()
        # a rank-one P = |psi><psi| propagates to |phi><phi| with phi = U^dag psi,
        # and ||[abar, |phi><phi|]|| = sqrt(Var_phi(abar))
        psi = functools.reduce(np.kron, [np.linalg.eigh(f)[1][:, -1] for f in projection.factors])
        phi = apply(invert_unitary(net), states.PureState(16, 2, psi)).amplitudes
        t = phi.reshape((2,) * 16)
        a_phi = sum(np.moveaxis(np.tensordot(c, t, axes=(1, i)), 0, i) for i in range(16))
        a_phi = a_phi.reshape(-1) / 16
        mean = np.vdot(phi, a_phi).real
        assert row["lhs"] == pytest.approx(np.sqrt(np.vdot(a_phi, a_phi).real - mean**2), abs=1e-12)

    def test_zero_trials_empty_report(self, capsys):
        code, report = run_json(capsys, ["verify", "1", "--trials", "0"])
        assert code == 0
        assert report["rows"] == []

    def test_csv_determinism(self, capsys, tmp_path):
        argv = ["verify", "1", "--trials", "4", "--seed", "11", "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == "trial,seed,n,k,noise,lhs,bound,pass"

    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("trials=3\nseed=9\nnoise=0.0\n")
        code, report = run_json(capsys, ["verify", "1", "--config", str(cfg)])
        assert code == 0
        assert len(report["rows"]) == 3
        assert report["config"]["seed"] == 9
        code, report = run_json(
            capsys, ["verify", "1", "--config", str(cfg), "--trials", "2"]
        )
        assert len(report["rows"]) == 2

    @pytest.mark.parametrize("flags, field", [
        (["--n-list", ""], "n_values"),
        (["--n-list", "0"], "n_values"),
        (["--n-list", "1", "--k-list", "-1"], "k_values"),
        (["--trials", "-3"], "trials"),
    ])
    def test_malformed_config_exits_2(self, capsys, flags, field):
        assert main(["verify", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, field", [
        (["--noise", "-0.5"], "noise"),
        (["--noise", "nan"], "noise"),
        (["--noise", "1.5", "--trials", "1"], "noise"),
        (["--tol", "nan"], "tol"),
        (["--tol", "-1"], "tol"),
    ])
    def test_invalid_noise_or_tol_exits_2(self, capsys, flags, field):
        assert main(["verify", "1", "--n-list", "4", "--k-list", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert f"{field} must" in captured.err
        assert "BOUND VIOLATION" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("noise", ["nan", "1.5"])
    def test_sweep_two_rejects_invalid_noise(self, capsys, noise):
        assert main(["verify", "2", "--trials", "1", "--n-list", "4", "--k-list", "1",
                     "--noise", noise]) == 2
        captured = capsys.readouterr()
        assert "noise must" in captured.err
        assert captured.out == ""

    def test_sweep_two_leaves_valid_noise_unused(self, capsys):
        argv = ["verify", "2", "--trials", "2", "--n-list", "4", "--k-list", "1", "--seed", "4"]
        code, plain = run_json(capsys, argv)
        code_noisy, noisy = run_json(capsys, argv + ["--noise", "0.3"])
        assert code == code_noisy == 0
        assert noisy == plain
        assert noisy["config"]["noise"] == 0.0

    def test_sweep_one_rows_carry_slack(self, capsys):
        code, report = run_json(capsys, ["verify", "1", "--trials", "4", "--seed", "2"])
        assert code == 0
        for row in report["rows"]:
            assert row["slack"] == row["bound"] - row["e_upper"]

    def test_uncertified_pass_is_counted_on_stderr(self, capsys, monkeypatch):
        argv = ["verify", "1", "--trials", "2", "--n-list", "4,8", "--k-list", "1",
                "--noise", "0.3", "--seed", "0"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert "not certified" not in capsys.readouterr().err
        unitary, noisy = report["rows"]
        assert noisy["n"] == 8 and noisy["lhs"] < noisy["e_upper"]
        # a bound between the noisy row's two values: the ceiling cannot settle
        # that row, and the search finds no counterexample
        middle = (noisy["lhs"] + noisy["e_upper"]) / 2
        real_bound = uncertainty.uncertainty_bound
        monkeypatch.setattr(uncertainty, "uncertainty_bound",
                            lambda n, k: middle if n == 8 else real_bound(n, k))
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["all_pass"] is True
        assert "note: 1 passing row(s) not certified" in captured.err


class TestLightcone:
    def test_ladder_report(self, capsys, ladder8):
        code, report = run_json(capsys, ["lightcone", ladder8, "--sites", "1"])
        assert code == 0
        assert report["max_support_size"] <= 8
        assert report["bounds"] == {"support": 8, "multiplicity": 8, "pairs_per_obs": 64}
        assert report["seed_support"] == [1, 2, 3, 5]

    def test_depth_zero_singletons(self, capsys, empty_circuit):
        code, report = run_json(capsys, ["lightcone", empty_circuit])
        assert code == 0
        assert report["max_support_size"] == 1
        assert report["supports"] == [[1], [2], [3]]
        assert report["bounds"] == {"support": 1, "multiplicity": 1, "pairs_per_obs": 1}


class TestDepthbound:
    def test_reference_values(self, capsys):
        assert main(["depthbound", "8", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)
        assert main(["depthbound", "2", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0)
        assert main(["depthbound", "1048576", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(9.5)

    def test_clamp(self, capsys):
        main(["depthbound", "8", "0.1"])
        assert float(capsys.readouterr().out) < 0
        main(["depthbound", "8", "0.1", "--clamp"])
        assert float(capsys.readouterr().out) == 0.0

    def test_zero_level_usage_error(self, capsys):
        assert main(["depthbound", "8", "0"]) == 2

    def test_json_format(self, capsys):
        code, report = run_json(capsys, ["depthbound", "8", "1", "--format", "json"])
        assert code == 0
        assert report["bound"] == pytest.approx(1.0)


class TestMeasure:
    def test_strong_exact_on_zeros(self, capsys, tmp_path):
        circuit = tmp_path / "idle4.qnet"
        circuit.write_text("qubits 4\n")
        code = main(["measure", "--circuit", str(circuit), "--mode", "strong", "--exact"])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        dist = {r["value"]: r["probability"] for r in records}
        assert dist[1.0] == pytest.approx(0.5, abs=1e-9)
        assert dist[-1.0] == pytest.approx(0.5, abs=1e-9)

    def test_weak_exact_on_cat(self, capsys, ladder8):
        code = main(["measure", "--circuit", ladder8, "--mode", "weak", "--exact"])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        total = {}
        for r in records:
            total[r["value"]] = total.get(r["value"], 0.0) + r["probability"]
        assert total == pytest.approx({1.0: 1.0}, abs=1e-9)

    def test_zero_shots_empty(self, capsys, ladder8):
        code = main(["measure", "--circuit", ladder8, "--mode", "strong", "--shots", "0"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_sampled_deterministic_with_post_states(self, capsys, tmp_path, ladder8):
        states_dir = tmp_path / "posts"
        argv = ["measure", "--circuit", ladder8, "--mode", "conjugated",
                "--shots", "3", "--seed", "4", "--states-dir", str(states_dir)]
        code = main(argv)
        assert code == 0
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
        records = [json.loads(line) for line in first.splitlines()]
        assert len(records) == 3
        for r in records:
            assert r["post_state_ref"] is not None
            loaded = states.state_from_json(
                (tmp_path / "posts" / r["post_state_ref"].split("/")[-1]).read_text()
            )
            assert loaded.n == 8

    def test_negative_shots_exit_2(self, capsys, ladder8):
        assert main(["measure", "--circuit", ladder8, "--shots", "-2"]) == 2
        assert "--shots" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["strong", "conjugated", "weak"])
    def test_shots_equal_per_shot_sampler_calls(self, capsys, tmp_path, mode):
        rho = states.random_density_state(3, 2, np.random.default_rng(12), rank=2)
        state_file = tmp_path / "rho.json"
        state_file.write_text(states.state_to_json(rho))
        posts = tmp_path / "posts"
        code = main(["measure", str(state_file), "--mode", mode, "--shots", "5", "--seed", "7",
                     "--states-dir", str(posts)])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 5
        for shot, r in enumerate(records):
            rng = np.random.default_rng(trial_seed(7, shot))
            if mode == "strong":
                o = sample_outcome(parity_measure_exact(rho, SIGMA_X), rng)
            elif mode == "weak":
                o = weak_measure_product(rho, [SIGMA_X] * 3, rng)
            else:
                o = conjugated_strong_measure(rho, build_parity_conjugator(3), rng)
            value = o.combined_value if mode == "weak" else o.value
            assert (r["value"], r["probability"], r["seed"]) == (value, o.probability, trial_seed(7, shot))
            assert (posts / f"outcome_{shot}.json").read_text() == states.state_to_json(o.post_state)
        assert len({r["value"] for r in records}) == 2

    def test_strong_on_density_forms_no_parity_operator(self, capsys, monkeypatch, tmp_path):
        rho = states.random_density_state(3, 2, np.random.default_rng(13), rank=2)
        state_file = tmp_path / "rho.json"
        state_file.write_text(states.state_to_json(rho))
        calls = []
        real_tensor, real_decompose = linalg.tensor, measurement.spectral_decompose
        monkeypatch.setattr(linalg, "tensor", lambda *a: calls.append("tensor") or real_tensor(*a))
        monkeypatch.setattr(measurement, "spectral_decompose",
                            lambda a: calls.append("spectral_decompose") or real_decompose(a))
        assert main(["measure", str(state_file), "--mode", "strong", "--exact"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert calls == []

    def test_weak_shots_decompose_once(self, capsys, monkeypatch, ladder8):
        calls = []

        def counted(a):
            calls.append(a)
            return spectral_decompose(a)

        monkeypatch.setattr(measurement, "spectral_decompose", counted)
        assert main(["measure", "--circuit", ladder8, "--mode", "weak", "--shots", "20"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 20
        assert len(calls) == 1

    def test_weak_shots_cost_one_pass(self, capsys, monkeypatch, ladder8):
        calls = []
        real = linalg.act_local

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "act_local", counted)
        made = []
        for shots in ("20", "200"):
            calls.clear()
            assert main(["measure", "--circuit", ladder8, "--mode", "weak", "--shots", shots]) == 0
            assert len(capsys.readouterr().out.splitlines()) == int(shots)
            made.append(len(calls))
        assert made[0] == made[1] > 0

    def test_weak_post_states_built_only_to_be_written(self, capsys, monkeypatch, tmp_path,
                                                       ladder8):
        built = []
        real = measurement._OutcomeTree.post_state

        def counted(self, picks):
            built.append(picks)
            return real(self, picks)

        monkeypatch.setattr(measurement._OutcomeTree, "post_state", counted)
        for flags in (["--exact"], ["--shots", "5"]):
            assert main(["measure", "--circuit", ladder8, "--mode", "weak", *flags]) == 0
        assert built == []
        capsys.readouterr()
        posts = tmp_path / "posts"
        for flags in (["--exact"], ["--shots", "5"]):
            built.clear()
            assert main(["measure", "--circuit", ladder8, "--mode", "weak", *flags,
                         "--states-dir", str(posts)]) == 0
            assert len(built) == len(capsys.readouterr().out.splitlines()) > 0

    def test_mode_observable_mismatch(self, capsys, ladder8):
        code = main(["measure", "--circuit", ladder8, "--mode", "conjugated",
                     "--observable", "parity-z", "--exact"])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err


class TestPureStatePath:
    @pytest.mark.parametrize("n, seed", [(1, 1), (3, 2), (5, 3)])
    def test_matches_density_file(self, tmp_path, capsys, n, seed):
        circuit = tmp_path / "net.qnet"
        circuit.write_text(serialize(random_shallow(n, 2, seed)))
        zero = states.state_to_dict(states.DensityState(1, 2, np.diag([1.0, 0.0])))
        zeros_file = tmp_path / "zeros.json"
        zeros_file.write_text(json.dumps({"terms": [{"weight": 1.0, "factors": [zero] * n}]}))
        density_file = tmp_path / "out.json"
        _, pure = run_json(capsys, ["simulate", str(circuit), "--input", "zeros"])
        _, dense = run_json(capsys, ["simulate", str(circuit), "--input", f"mixture:{zeros_file}",
                                     "--state-out", str(density_file)])
        assert (pure["kind"], dense["kind"]) == ("pure", "density")
        for key in ("purity", "e_lower", "fidelity_to_cat"):
            assert abs(pure[key] - dense[key]) <= 1e-12
        for axis in "xyz":
            assert abs(pure["variance"][axis] - dense["variance"][axis]) <= 1e-12
        _, pure = run_json(capsys, ["erho", "--circuit", str(circuit), "--input", "zeros"])
        _, dense = run_json(capsys, ["erho", str(density_file)])
        for key in ("e_lower", "variance_bound"):
            assert abs(pure[key] - dense[key]) <= 1e-12

    def test_sixteen_qubit_cat_without_density_matrix(self, monkeypatch, tmp_path, capsys,
                                                      ladder16):
        def forbidden(self):
            raise AssertionError("PureState.density called")

        monkeypatch.setattr(states.PureState, "density", forbidden)
        _, report = run_json(capsys, ["simulate", ladder16])
        assert report["kind"] == "pure"
        assert report["fidelity_to_cat"] == pytest.approx(1.0, abs=1e-10)
        assert report["e_lower"] == pytest.approx(1.0, abs=1e-9)
        _, report = run_json(capsys, ["erho", "--circuit", ladder16])
        assert report["e_lower"] == pytest.approx(1.0, abs=1e-9)

        def records(*flags):
            assert main(["measure", "--circuit", ladder16, *flags]) == 0
            return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

        for r in records("--mode", "strong", "--shots", "3", "--seed", "5"):
            assert r["value"] == 1.0
            assert r["probability"] == pytest.approx(1.0, abs=1e-10)
        for r in records("--mode", "weak", "--shots", "3", "--seed", "5"):
            assert r["value"] == 1.0
            assert r["probability"] == pytest.approx(2.0**-15, rel=1e-9)
        posts = tmp_path / "posts"
        [r] = records("--mode", "conjugated", "--exact", "--states-dir", str(posts))
        assert r["value"] == 1.0
        assert r["probability"] == pytest.approx(1.0, abs=1e-10)
        post = states.state_from_json((posts / "outcome_0.json").read_text())
        assert states.fidelity(post, states.cat_state(16)) == pytest.approx(1.0, abs=1e-10)


class TestDeterminism:
    def test_same_seed_byte_identical_json(self, capsys):
        argv = ["verify", "2", "--trials", "5", "--seed", "21"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


def test_verify_exits_one_on_violation(monkeypatch, capsys):
    # a genuine counterexample cannot be produced, so fake one row
    from shallownet import cli as cli_module

    def fake_sweep(which, config):
        return [{"trial": 0, "seed": 1, "n": 4, "k": 0, "noise": 0.0,
                 "lhs": 2.0, "bound": 0.7, "pass": False}]

    monkeypatch.setattr(cli_module.sweeps, "run_sweep", fake_sweep)
    assert main(["verify", "1", "--trials", "1"]) == 1
    assert "BOUND VIOLATION" in capsys.readouterr().err


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def assert_usage_error(capsys, argv, text):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert text in captured.err
    assert captured.out == ""


class TestInputSpecs:
    def test_cat_input(self, capsys, empty_circuit):
        code, report = run_json(capsys, ["simulate", empty_circuit, "--input", "cat"])
        assert code == 0
        assert report["fidelity_to_cat"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("circuit, spec, text", [
        ("qubits 2\nldim 3\n", "cat", "cat input requires local dimension 2"),
        ("qubits 3\n", "product:0,1", "product input lists 2 kets for 3 sites"),
        ("qubits 2\n", "product:0,x", "unknown ket token 'x'"),
        ("qubits 2\n", "product:0,2", "unknown ket token '2'"),
        ("qubits 2\n", "ones", "unknown input spec 'ones'"),
    ])
    def test_bad_spec_exits_2(self, tmp_path, capsys, circuit, spec, text):
        path = tmp_path / "c.qnet"
        path.write_text(circuit)
        assert_usage_error(capsys, ["simulate", str(path), "--input", spec], text)

    @pytest.mark.parametrize("spec, tok", [("product:+,+", "+"), ("product:+,0", "+"), ("product:0,-", "-")])
    def test_sign_kets_need_qubits(self, tmp_path, capsys, spec, tok):
        path = tmp_path / "c.qnet"
        path.write_text("qubits 2\nldim 3\n")
        assert_usage_error(capsys, ["simulate", str(path), "--input", spec],
                           f"product ket '{tok}' requires local dimension 2, got 3")

    def test_mixture_factor_of_two_sites_exits_2(self, tmp_path, capsys, empty_circuit):
        pair = states.state_to_dict(states.basis_state(2, 2))
        mix_file = write_json(tmp_path / "mix.json", {"terms": [{"weight": 1.0, "factors": [pair]}]})
        assert_usage_error(capsys, ["simulate", empty_circuit, "--input", f"mixture:{mix_file}"],
                           "terms[0].factors[0]: a mixture factor must be a single-site state")

    def test_bool_mixture_weight_exits_2(self, tmp_path, capsys, empty_circuit):
        zero = states.state_to_dict(states.basis_state(1, 2))
        doc = {"terms": [{"weight": True, "factors": [zero] * 3}]}
        mix_file = write_json(tmp_path / "mix.json", doc)
        assert_usage_error(capsys, ["simulate", empty_circuit, "--input", f"mixture:{mix_file}"],
                           "terms[0]: field 'weight' is missing or not a number, got True")

    def test_nan_mixture_weight_exits_2(self, tmp_path, capsys, empty_circuit):
        zero = states.state_to_dict(states.basis_state(1, 2))
        doc = {"terms": [{"weight": float("nan"), "factors": [zero] * 3}]}
        mix_file = write_json(tmp_path / "mix.json", doc)
        assert_usage_error(capsys, ["simulate", empty_circuit, "--input", f"mixture:{mix_file}"],
                           "weight nan")


class TestNonFiniteInput:
    NAN_PURE = {"n": 2, "l": 2, "kind": "pure",
                "data": [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}

    @pytest.mark.parametrize("argv", [
        ["measure", "--mode", "strong", "--exact"],
        ["measure", "--mode", "conjugated", "--exact"],
        ["erho"],
    ])
    def test_nan_amplitude_exits_2(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "s.json", self.NAN_PURE)
        assert_usage_error(capsys, [argv[0], path, *argv[1:]], "field 'data'")

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [float("inf"), 0.0]])
    def test_non_finite_density_entry_exits_2(self, tmp_path, capsys, entry):
        data = [[0.5, 0.0], entry, [0.0, 0.0], [0.5, 0.0]]
        path = write_json(tmp_path / "s.json", {"n": 1, "l": 2, "kind": "density", "data": data})
        assert_usage_error(capsys, ["erho", path], "field 'data'")

    def test_bool_data_exits_2(self, tmp_path, capsys):
        doc = {"n": 1, "l": 2, "kind": "pure", "data": [[True, False], [False, False]]}
        path = write_json(tmp_path / "s.json", doc)
        assert_usage_error(capsys, ["erho", path], "field 'data'")

    @pytest.mark.parametrize("key", ["n", "l"])
    def test_bool_count_exits_2(self, tmp_path, capsys, key):
        doc = {"n": 1, "l": 2, "kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]], key: True}
        path = write_json(tmp_path / "s.json", doc)
        assert_usage_error(capsys, ["erho", path], f"field '{key}'")

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_depthbound_non_finite_level_exits_2(self, capsys, r):
        assert_usage_error(capsys, ["depthbound", "8", r], f"r must be positive and finite, got {r}")

    def test_eigenvalue_below_floor_exits_2(self, tmp_path, capsys):
        diag = [0.5 + 1e-9, 0.3, 0.2, -1e-9]
        data = [[diag[i] if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
        path = write_json(tmp_path / "s.json", {"n": 2, "l": 2, "kind": "density", "data": data})
        assert_usage_error(capsys, ["erho", path], "minimum eigenvalue -1e-09")


class TestCsvAndConfig:
    def read_csv(self, capsys, argv) -> list:
        assert main(argv) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_simulate_csv(self, capsys, ladder8):
        (row,) = self.read_csv(capsys, ["simulate", ladder8, "--format", "csv"])
        assert (row["n"], row["depth"], row["kind"]) == ("8", "3", "pure")
        assert float(row["fidelity_to_cat"]) == pytest.approx(1.0, abs=1e-10)
        assert "variance" not in row and "config" not in row

    def test_lightcone_csv(self, capsys, ladder8):
        (row,) = self.read_csv(capsys, ["lightcone", ladder8, "--format", "csv"])
        assert row["n"] == "8" and row["bound_support"] == "8"
        assert int(row["max_support_size"]) <= 8

    def test_depthbound_csv(self, capsys):
        (row,) = self.read_csv(capsys, ["depthbound", "8", "1", "--format", "csv"])
        assert (row["n"], row["r"], float(row["bound"])) == ("8", "1.0", pytest.approx(1.0))

    def test_measure_refuses_qutrit_state(self, capsys, qutrit_state_file):
        assert_usage_error(capsys, ["measure", qutrit_state_file, "--exact"], "local dimension 2")

    @pytest.mark.parametrize("line, text", [
        ("observable=foo", "unknown observable 'foo'"),
        ("mode=foo", "unknown mode 'foo'"),
        ("format=csv", "field 'format': measure writes JSON lines: format must be 'json', got 'csv'"),
    ])
    def test_measure_config_value_checked(self, tmp_path, capsys, ladder8, line, text):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(line + "\n")
        assert_usage_error(capsys, ["measure", "--circuit", ladder8, "--exact",
                                    "--config", str(cfg)], text)

    @pytest.mark.parametrize("command", ["simulate", "erho", "verify", "lightcone"])
    def test_config_format_checked(self, tmp_path, capsys, ladder8, command):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("format=xml\n")
        argv = {"simulate": ["simulate", ladder8], "erho": ["erho", "--circuit", ladder8],
                "verify": ["verify", "2", "--trials", "1"], "lightcone": ["lightcone", ladder8]}
        assert_usage_error(capsys, [*argv[command], "--config", str(cfg)],
                           f"config file {cfg}: field 'format': must be 'json' or 'csv', got 'xml'")

    def test_measure_format_flag_refused(self, capsys, ladder8):
        assert_usage_error(capsys, ["measure", "--circuit", ladder8, "--exact", "--format", "csv"],
                           "format must be 'json', got 'csv'")

    def test_unknown_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("trails=3\n")
        assert_usage_error(capsys, ["verify", "2", "--config", str(cfg)],
                           f"config file {cfg}: unknown key 'trails'")

    def test_int_lists_from_config_and_flags(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n-list=4,6\nk-list=1\ntrials=2\n")
        code, report = run_json(capsys, ["verify", "2", "--config", str(cfg)])
        assert code == 0
        assert (report["config"]["n_values"], report["config"]["k_values"]) == ([4, 6], [1])
        code, report = run_json(capsys, ["verify", "2", "--config", str(cfg), "--n-list", "8"])
        assert report["config"]["n_values"] == [8]

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "1", "--n-list", "4,x"], "--n-list"),
        (["verify", "2", "--k-list", "a"], "--k-list"),
        (["lightcone", "--sites", "a"], "--sites"),
    ])
    def test_int_list_flag_named(self, capsys, ladder8, argv, flag):
        if argv[0] == "lightcone":
            argv = [argv[0], ladder8, *argv[1:]]
        bad = argv[-1].split(",")[-1]
        assert_usage_error(capsys, argv, f"error: {flag}: invalid literal for int() with base 10: '{bad}'")

    def test_sites_config_field_named(self, tmp_path, capsys, ladder8):
        cfg = tmp_path / "lc.cfg"
        cfg.write_text("sites=1,a\n")
        assert_usage_error(capsys, ["lightcone", ladder8, "--config", str(cfg)],
                           f"config file {cfg}: field 'sites': invalid literal for int()")
