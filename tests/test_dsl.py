import pathlib

import numpy as np
import pytest

from shallownet import states
from shallownet.dsl import CircuitParseError, parse, serialize
from shallownet.linalg import embed
from shallownet.network import (
    CNOT,
    ONE_SITE_GATES,
    TWO_SITE_GATES,
    LocalChannel,
    Network,
    Step,
    apply_pure,
    cat_ladder,
    depolarizing_kraus,
    random_shallow,
)
from shallownet.states import cat_state, fidelity, product_state

MALFORMED = pathlib.Path(__file__).parent / "data" / "malformed"
KET0 = np.array([1, 0], dtype=complex)


def networks_equal(a: Network, b: Network) -> bool:
    if (a.n, a.l, a.depth) != (b.n, b.l, b.depth):
        return False
    for sa, sb in zip(a.steps, b.steps):
        ca = sorted(sa.channels, key=lambda c: min(c.support))
        cb = sorted(sb.channels, key=lambda c: min(c.support))
        if len(ca) != len(cb):
            return False
        for x, y in zip(ca, cb):
            if x.support != y.support or len(x.kraus) != len(y.kraus):
                return False
            if not all(np.array_equal(kx, ky) for kx, ky in zip(x.kraus, y.kraus)):
                return False
    return True


class TestParse:
    def test_minimal_document(self):
        net = parse("qubits 2\nstep\n  gate CNOT 1 2\n")
        assert net.depth == 1
        ch = net.steps[0].channels[0]
        assert ch.support == (1, 2)
        assert np.array_equal(ch.kraus[0], CNOT)

    def test_ladder_document_prepares_cat(self):
        text = serialize(cat_ladder(3, include_prologue=True))
        net = parse(text)
        out = apply_pure(net, product_state([KET0] * 8))
        assert fidelity(out, cat_state(8)) == pytest.approx(1.0, abs=1e-10)

    def test_comments_and_blanks_ignored(self):
        net = parse("# title\n\nqubits 2\n# more\nstep\n  gate H 1\n\n")
        assert net.depth == 1

    def test_depol_gate(self):
        net = parse("qubits 3\nstep\n  gate DEPOL(0.25) 2\n")
        ch = net.steps[0].channels[0]
        assert len(ch.kraus) == 4
        want = depolarizing_kraus(0.25, 2)
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, want))

    def test_inline_unitary(self):
        text = (
            "qubits 2\nstep\n  gate UNITARY 1\n"
            "    0.0,0.0 1.0,0.0\n    1.0,0.0 0.0,0.0\n"
        )
        ch = parse(text).steps[0].channels[0]
        assert np.array_equal(ch.kraus[0], np.array([[0, 1], [1, 0]], dtype=complex))

    def test_missing_header(self):
        with pytest.raises(CircuitParseError) as err:
            parse("step\n  gate H 1\n")
        assert err.value.category == "syntax"


# (document, category, line, column) for every parse error site
PARSE_ERRORS = [
    ("qubits 2\nqubits 3\n", "syntax", 2, 1),
    ("", "syntax", 1, 1),
    ("# only a comment\n", "syntax", 1, 1),
    ("qubits\n", "syntax", 1, 1),
    ("qubits two\n", "syntax", 1, 8),
    ("qubits 0\n", "syntax", 1, 8),
    ("qubits 2\nstep\nldim 3\n", "syntax", 3, 1),
    ("qubits 2\nldim\n", "syntax", 2, 1),
    ("qubits 2\nldim 1\n", "syntax", 2, 6),
    ("step\n", "syntax", 1, 1),
    ("qubits 2\nstep 1\n", "syntax", 2, 1),
    ("qubits 2\ngate H 1\n", "syntax", 2, 1),
    ("qubits 2\nstep\n  measure 1\n", "syntax", 3, 3),
    ("qubits 2\nstep\n  gate H\n", "syntax", 3, 3),
    ("qubits 3\nstep\n  gate CNOT 1 2 3\n", "arity", 3, 13),
    ("qubits 2\nstep\n  gate CNOT 1 1\n", "arity", 3, 13),
    ("qubits 2\nstep\n  gate H x\n", "syntax", 3, 10),
    ("qubits 2\nstep\n  gate DEPOL(1.5) 1\n", "syntax", 3, 8),
    ("qubits 2\nstep\n  gate DEPOL(lots) 1\n", "syntax", 3, 8),
    ("qubits 2\nstep\n  gate H 1 2\n", "arity", 3, 8),
    ("qubits 2\nldim 3\nstep\n  gate H 1\n", "local-dimension", 4, 8),
    ("qubits 2\nstep\n  gate SWAP 1\n", "arity", 3, 8),
    ("qubits 2\nldim 3\nstep\n  gate CZ 1 2\n", "local-dimension", 4, 8),
    ("qubits 1\nstep\n  gate UNITARY 1\n    1,0 0,0\n", "local-dimension", 3, 1),
    ("qubits 1\nstep\n  gate UNITARY 1\n    1,0 0,0\n  step\n", "local-dimension", 5, 3),
    ("qubits 1\nstep\n  gate UNITARY 1\n    1,0\n", "local-dimension", 4, 5),
    ("qubits 1\nstep\n  gate UNITARY 1\n    1,0 0\n    0,0 1,0\n", "syntax", 4, 9),
    ("qubits 1\nstep\n  gate UNITARY 1\n    1,0 0,x\n    0,0 1,0\n", "syntax", 4, 9),
    ("qubits 1\nstep\n  channel 1 1\n", "syntax", 3, 3),
    ("qubits 1\nstep\n  channel unitary 1 1\n", "syntax", 3, 3),
    ("qubits 1\nstep\n  channel kraus 0 1\n", "syntax", 3, 17),
    ("qubits 1\nstep\n  channel kraus one 1\n", "syntax", 3, 17),
]


class TestDiagnostics:
    def test_overlap_names_both_lines(self):
        with pytest.raises(CircuitParseError) as err:
            parse("qubits 2\nstep\n gate H 1\n gate H 1\n")
        e = err.value
        assert e.category == "overlap"
        assert e.line == 4
        assert "line 3" in e.message

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError) as err:
            parse("qubits 2\nstep\n  gate FLIP 1\n")
        assert err.value.category == "unknown-gate"
        assert err.value.line == 3

    def test_arity(self):
        with pytest.raises(CircuitParseError) as err:
            parse("qubits 4\nstep\n  gate CNOT 1\n")
        assert err.value.category == "arity"

    def test_site_range(self):
        with pytest.raises(CircuitParseError) as err:
            parse("qubits 2\nstep\n  gate H 5\n")
        assert err.value.category == "site-range"

    def test_inline_dimension_mismatch(self):
        text = "qubits 2\nldim 3\nstep\n  gate UNITARY 1\n    1,0 0,0 0,0\n    0,0 1,0 0,0\n"
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert err.value.category == "local-dimension"

    @pytest.mark.parametrize(
        "name, category",
        [
            ("bad_syntax.qnet", "syntax"),
            ("unknown_gate.qnet", "unknown-gate"),
            ("overlap.qnet", "overlap"),
            ("site_range.qnet", "site-range"),
            ("arity.qnet", "arity"),
            ("ldim_mismatch.qnet", "local-dimension"),
        ],
    )
    def test_malformed_corpus(self, name, category):
        text = (MALFORMED / name).read_text()
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert err.value.category == category
        assert err.value.line >= 1
        assert err.value.column >= 1
        assert f"line {err.value.line}" in str(err.value)

    @pytest.mark.parametrize("text, category, line, column", PARSE_ERRORS)
    def test_error_site(self, text, category, line, column):
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert (err.value.category, err.value.line, err.value.column) == (category, line, column)
        assert str(err.value).startswith(f"line {line}, column {column}: {category}: ")


class TestSerialize:
    def test_ladder_layout(self):
        lines = serialize(cat_ladder(2)).splitlines()
        assert lines[0] == "qubits 4"
        assert lines.count("step") == 2
        assert lines[1] == "step"
        assert lines[2] == "  gate CNOT 1 2"
        assert lines[3] == "step"
        assert sorted(lines[4:]) == ["  gate CNOT 1 3", "  gate CNOT 2 4"]

    def test_library_gate_round_trip_is_bit_identical(self):
        net = cat_ladder(3)
        again = parse(serialize(net))
        assert networks_equal(net, again)

    def test_reversed_control_sites_preserved(self):
        net = Network(2, 2, (Step((LocalChannel((2, 1), (CNOT,)),)),))
        text = serialize(net)
        assert "gate CNOT 2 1" in text
        assert networks_equal(net, parse(text))

    def test_depol_round_trip(self):
        net = parse("qubits 2\nstep\n  gate DEPOL(0.3) 1 2\n")
        text = serialize(net)
        assert "DEPOL(0.3)" in text
        assert networks_equal(net, parse(text))

    def test_inline_kraus_round_trip(self):
        kraus = tuple(k @ CNOT for k in depolarizing_kraus(0.17, 4))
        net = Network(3, 2, (Step((LocalChannel((3, 1), kraus),)),))
        again = parse(serialize(net))
        assert networks_equal(net, again)

    def test_random_round_trips(self):
        rng = np.random.default_rng(38)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, 4))
            noise = float(rng.choice([0.0, 0.0, 0.1]))
            pool = ("haar", "CNOT", "CZ", "SWAP") if trial % 2 else ("haar",)
            net = random_shallow(n, k, int(rng.integers(1 << 32)), gate_pool=pool, noise=noise)
            assert networks_equal(net, parse(serialize(net)))

    def test_qutrit_round_trip(self):
        rng = np.random.default_rng(39)
        from shallownet.network import haar_unitary

        net = Network(
            2, 3,
            (Step((LocalChannel((1, 2), (haar_unitary(9, rng),)),)),
             Step((LocalChannel((2,), tuple(depolarizing_kraus(0.2, 3))),))),
        )
        text = serialize(net)
        assert "ldim 3" in text
        assert networks_equal(net, parse(text))

    @pytest.mark.parametrize("name", sorted(ONE_SITE_GATES))
    def test_one_site_library_gate_round_trip(self, name):
        net = Network(2, 2, (Step((LocalChannel((2,), (ONE_SITE_GATES[name],)),)),))
        text = serialize(net)
        assert f"gate {name} 2" in text.splitlines()[2]
        assert networks_equal(net, parse(text))

    def test_matrix_with_control_second_reads_as_reversed_cnot(self):
        swap = TWO_SITE_GATES["SWAP"]
        net = Network(2, 2, (Step((LocalChannel((1, 2), (swap @ CNOT @ swap,)),)),))
        text = serialize(net)
        assert text.splitlines()[2] == "  gate CNOT 2 1"
        ch = parse(text).steps[0].channels[0]
        want = embed(swap @ CNOT @ swap, (1, 2), 2, 2)
        assert np.array_equal(embed(ch.kraus[0], ch.support, 2, 2), want)
