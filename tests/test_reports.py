"""The rule of `Report.add`: a check passes exactly when its residual is
falsy, and records `str(residual)` only when it does not pass.  The texts of
the failing paths are pinned here too, each forced through one hook."""

import pytest

import onsaw.cli as cli
import onsaw.yangbaxter as yb
from onsaw import altpres
from onsaw.altpres import appendix_fixtures_report, reduction_diagram_report, verify_iso
from onsaw.elements import AlgElem
from onsaw.envelope import PBW, pbw_lie_compat_report
from onsaw.onsager import A, G, verify_dolan_grady
from onsaw.quotient import QuotientO, forward_reduction_report, u_poly_report
from onsaw.reports import DISCREPANCY, FAIL, PASS, Report
from onsaw.reps import rep_build, rep_check, rep_matrix_identity_report
from onsaw.scalars import LaurentPoly, lvar
from test_mutants import install_dropped_term_product


@pytest.mark.parametrize("residual", [AlgElem(), LaurentPoly(), "", [], 0, False])
def test_an_empty_residual_passes(residual):
    report = Report()
    report.add("x", residual)
    report.add_discrepancy("y", residual)
    assert [(c.status, c.residual) for c in report.checks] == [(PASS, ""), (PASS, "")]


def test_a_nonzero_residual_does_not_pass_and_records_its_text():
    x = A(0) * lvar("alpha") - G(1)
    report = Report()
    report.add("x", x)
    report.add_discrepancy("y", x)
    report.add("z", "a message")
    assert [(c.status, c.residual) for c in report.checks] == [
        (FAIL, "alpha*A(0) + -G(1)"),
        (DISCREPANCY, "alpha*A(0) + -G(1)"),
        (FAIL, "a message"),
    ]


def run_suite(name):
    opts = cli._build_parser().parse_args(["verify", name])
    cli._apply_config(opts, {})
    return cli.run_suite(name, opts)


def corrupted_r_matrix(monkeypatch):
    return yb.verify_cybe(yb.corrupted_r_matrix())


def dropped_term_product(monkeypatch):
    """The `_add_product` mutant with the r-matrix built first, so the numeric
    verdicts of `cybe` and `reD` disagree with the symbolic ones."""
    r = yb.r_matrix_num()
    monkeypatch.setattr(yb, "r_matrix_num", lambda: r)
    install_dropped_term_product(monkeypatch)
    q = QuotientO.symbolic(1)
    report = yb.verify_cybe(r).extend(yb.verify_reD())
    report.extend(reduction_diagram_report(q))
    report.extend(pbw_lie_compat_report(QuotientO.symbolic(2)))
    return report.extend(forward_reduction_report(q, 1))


def broken_to_ons_sym(monkeypatch):
    """One fault for each message of the triangular check; the mutant builds
    new elements, so the cached images stay as they are."""
    image = altpres._to_ons_sym

    def mutant(sym):
        x = image(sym)
        if sym == ("Wm", 2):
            return x + A(3)  # not symmetric
        if sym == ("Wp", 1):
            return x + A(5) + A(-3)  # above the diagonal
        if sym == ("Gt", 3):
            return x - G(4) * x.coeff(("G", 4))  # zero diagonal
        return x

    monkeypatch.setattr(altpres, "_to_ons_sym", mutant)
    return verify_iso(kmax_bracket=1, kmax_round=4).extend(appendix_fixtures_report())


def scaled_rep(monkeypatch):
    q, rep = rep_build(["w"])
    rep[("G", 1)] = rep[("G", 1)].scale(2)
    return rep_check(q, rep).extend(rep_matrix_identity_report(["w"], q, rep))


def poisoned_upoly(monkeypatch):
    q = QuotientO.symbolic(1)
    q._upoly[(0, 0)] = LaurentPoly.const(7)
    return u_poly_report(q, 1).extend(forward_reduction_report(q, 1))


def passing_negative_control(monkeypatch):
    _, residual = cli._NEGATIVE_CONTROLS["dg"]
    monkeypatch.setitem(cli._NEGATIVE_CONTROLS, "dg", (verify_dolan_grady, residual))
    return run_suite("dg")


def disagreeing_rewrite_strategies(monkeypatch):
    normalize = PBW.normalize_word

    def mutant(self, word):
        out = normalize(self, word)
        return out.scale(2) if self.strategy == "last" else out

    monkeypatch.setattr(PBW, "normalize_word", mutant)
    return run_suite("quartic")


FAILING_TEXTS = [
    (
        corrupted_r_matrix,
        {
            "cybe:symbolic": (
                "nonzero residual at entries [(0, 3), (0, 5), (0, 6), (1, 2), (1, 4), "
                "(1, 7)]..."
            ),
        },
    ),
    (
        dropped_term_product,
        {
            "cybe:symbolic": (
                "nonzero residual at entries [(0, 3), (0, 5), (0, 6), (1, 2), (1, 4), "
                "(1, 7)]..."
            ),
            "cybe:numeric-agrees": (
                "numeric evaluation disagrees with the symbolic verdict"
            ),
            "reD:r12:symbolic": (
                "nonzero commutator entries at [(0, 0), (0, 1), (1, 0), (1, 1)]"
            ),
            "reD:r12:numeric-agrees": (
                "numeric evaluation disagrees with the symbolic verdict"
            ),
            "diagram:N1:A-5": (
                "-3*alpha^3*Wm(0) + 2*Wm(1) + -32*Wm(3) + (-1 + -3*alpha^2)*Wp(0) + "
                "12*Wp(2)"
            ),
            "diagram:N1:A-4": "(1 + 2*alpha^2)*Wm(0) + -12*Wm(2) + 4*Wp(1)",
            "diagram:N1:A-3": "(-1*alpha + -1*alpha^3)*Wm(0) + -4*Wm(1) + Wp(0)",
            "diagram:N1:A-2": "-Wm(0)",
            "diagram:N1:A3": "-Wp(0)",
            "diagram:N1:A4": "Wm(0) + (-1*alpha + -1*alpha^3)*Wp(0) + -4*Wp(1)",
            "diagram:N1:A5": "4*Wm(1) + (1 + 2*alpha^2)*Wp(0) + -12*Wp(2)",
            "diagram:N1:G3": "1/4*Gt(0)",
            "diagram:N1:G4": "(1/4*alpha + 1/4*alpha^3)*Gt(0) + Gt(1)",
            "diagram:N1:G5": "(-1/4 + -1/2*alpha^2)*Gt(0) + 3*Gt(2)",
            "pbw-lie:all-pairs": (
                "failing pairs [(('A', -1), ('G', 1)), (('A', -1), ('G', 2)), (('A', "
                "2), ('G', 1)), (('A', 2), ('G', 2))]"
            ),
            "upoly-forward:A:N1:p1": "alpha^2*A(1)",
            "upoly-forward:G:N1:p1": "alpha^2*G(1)",
        },
    ),
    (
        broken_to_ons_sym,
        {
            "iso:round-trip-onsager": (
                "failing symbols [('A', -4), ('A', -2), ('A', 2), ('A', 4), ('G', 4)]"
            ),
            "iso:round-trip-alt": "failing symbols [('Wm', 2), ('Wp', 1), ('Gt', 3)]",
            "triangular:Wm": "Wm(2) not symmetric at ('A', 3)/('A', -3)",
            "triangular:Wp": "Wp(1) has coefficient above the diagonal at ('A', 5)",
            "triangular:Gt": "Gt(3) has zero diagonal coefficient",
            "appendix-a:to-ons:A2": "2*A(-3) + 2*A(5)",
            "appendix-a:to-ons:A-2": "-2*A(-3) + 4*A(3) + -2*A(5)",
            "appendix-a:inverse:Wp1": "A(-3) + A(5)",
            "appendix-a:inverse:Wm2": "A(3)",
            "appendix-a:printed-Gt2": (
                "conversion gives -G(1) + -G(3); the printed inverse display reads "
                "-2*G(1) + -G(3)"
            ),
        },
    ),
    (
        scaled_rep,
        {
            "rep:relations:N1": (
                "commutator mismatch for pairs [(('A', 1), ('A', 0)), (('G', 1), ('A', "
                "0)), (('G', 1), ('A', 1))]"
            ),
            "rep:block-identity:N1": "block identity fails in blocks [(0, 0), (1, 1)]",
        },
    ),
    (
        poisoned_upoly,
        {
            "upoly:N1:p0:j0": "recursion 7 but oracle alpha",
            "upoly:N1:p1:j0": "recursion -1 + 7*alpha but oracle -1 + alpha^2",
            "upoly-forward:A:N1:p0": "(7 + -1*alpha)*A(1)",
            "upoly-forward:G:N1:p0": "(7 + -1*alpha)*G(1)",
            "upoly-forward:A:N1:p1": "(-7*alpha + alpha^2)*A(1)",
            "upoly-forward:G:N1:p1": "(-7*alpha + alpha^2)*G(1)",
        },
    ),
    (
        passing_negative_control,
        {
            "dg:negative-control": "corrupted structure constants were not rejected",
        },
    ),
    (
        disagreeing_rewrite_strategies,
        {
            "quartic:pbw-confluence-spot": "rewrite strategies disagree",
        },
    ),
]


@pytest.mark.parametrize(
    "hook, expected", FAILING_TEXTS, ids=[hook.__name__ for hook, _ in FAILING_TEXTS]
)
def test_failing_paths_record_their_texts(monkeypatch, hook, expected):
    report = hook(monkeypatch)
    assert {c.id: c.residual for c in report.checks if c.status != PASS} == expected
