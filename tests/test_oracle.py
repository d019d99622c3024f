"""Oracle failure paths: a broken law must fail its own check, and every
command that prints a certified output must refuse it with exit code 1."""

import ast
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import padic_cf
import padic_cf.cli as cli
import padic_cf.oracle as oracle
from padic_cf import browkin, digits, schneider
from padic_cf.cli import SWEEP_COLUMNS, main
from padic_cf.exactarith import vp_split

from replay import beta1_abs, beta_trace, y_trace


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "record",
    ["BrowkinExpansion", "BrowkinStep", "Convergent", "BoundReport", "SchneiderExpansion",
     "SchneiderStep", "HeadReport", "PAdicDigits"],
)
def test_records_are_named_tuples(record):
    # the mutants below rebuild records with _replace, which every NamedTuple has
    cls = getattr(browkin if record == "Convergent" else padic_cf, record)
    assert issubclass(cls, tuple) and cls._fields and hasattr(cls, "_replace")


def test_reports_define_no_property():
    # plain integer tuples: the exact values they stand for are printed by the CLI off
    # these integers, the traces an expansion does not store are the oracle's chain walks,
    # and the tests build all of them from the fields
    for record in (browkin.BoundReport, schneider.HeadReport, browkin.BrowkinExpansion,
                   schneider.SchneiderExpansion, browkin.BrowkinStep, schneider.SchneiderStep):
        properties = [name for name, value in vars(record).items() if isinstance(value, property)]
        assert properties == [], record.__name__


def test_records_compare_as_tuples():
    assert schneider.SchneiderStep(1, 1) == (1, 1)
    report = browkin.browkin_bound(2, 5, 3)
    assert tuple(report) == (3, 2, 5, 6) and report.exact_certificate is True
    assert repr(report) == "BoundReport(p=3, beta0_abs=2, beta1_abs=5, n_bound=6)"


def _short_bound(beta0, beta1, p):
    return browkin.browkin_bound(beta0, beta1, p)._replace(n_bound=-1)


_walk = oracle._walk


def _doubled_past_the_first(p, y_prev, y_cur, links):
    # the oracle's chain with 2*y in place of every value after the first, and the remainders
    # kept: on 2/5 at p = 3 the majorant reads beta_2 = 2 for 1; the battery reads beta_1
    # alone, the determinant identity only remainders and beta_{N+1} = 0, and the Schneider
    # laws the last two y values, both doubled, of a chain longer than two
    for i, (y, rem) in enumerate(_walk(p, y_prev, y_cur, links)):
        yield (2 * y if i else y), rem


def _next_alpha(a, b, p, *first):
    # alpha + 1 in place of the record's alpha; the steps, and so their value, stay
    expansion = browkin.browkin_expand(a, b, p, *first)
    return expansion._replace(alpha=expansion.alpha + 1)


def _wrong_first_digit(a, b, p, count):
    window = digits.padic_digits(a, b, p, count)
    return window._replace(digits=(window.digits[0] + 1,) + window.digits[1:])


def _deeper_last_step(a, b, p, *first):
    # the last step's alpha + 1 and the tail (p*num, den): the same value.  Each kernel plant
    # takes the first step a sweep row hands its kernel, and hands it on
    expansion = schneider.schneider_expand(a, b, p, *first)
    *head, (digit, alpha) = expansion.steps
    num, den = expansion.tail
    return expansion._replace(steps=(*head, schneider.SchneiderStep(digit, alpha + 1)), tail=(p * num, den))


def _wide_last_digit(a, b, p, *first):
    # a stationary record's last step (d, alpha) as (d + (p - 1)*p**alpha, alpha + 1): over the
    # tail -1 both are worth d - p**alpha, so the value, the tail and its marker stay, and the
    # digit past p - 1 fails the matrix laws alone (2/5 at p = 3 is stationary from index 4)
    expansion = schneider.schneider_expand(a, b, p, *first)
    *head, (digit, alpha) = expansion.steps
    last = schneider.SchneiderStep(digit + (p - 1) * p**alpha, alpha + 1)
    return expansion._replace(steps=(*head, last))


def _unmarked_end(a, b, p, *first):
    # the stationary marker cleared: neither the reconstruction nor the matrix laws read it
    return schneider.schneider_expand(a, b, p, *first)._replace(stationary_from=None)


BROKEN_LAWS = [
    ("cf_pair", lambda steps, p, numerators: (0, 1), "browkin reconstruction"),
    ("browkin_bound", _short_bound, "browkin length bound"),
    ("_walk", _doubled_past_the_first, "majorant"),
    ("browkin_expand", _next_alpha, "determinant identity"),
    ("padic_digits", _wrong_first_digit, "digit truncation identity"),
    ("schneider_pair", lambda head, tail, p: (0, 1), "schneider reconstruction"),
    ("schneider_expand", _wide_last_digit, "schneider matrix laws"),
    ("schneider_expand", _unmarked_end, "schneider tail laws"),
]


def test_battery_names_every_check(capsys):
    code, out, _ = run_cli(["verify", "-p", "3", "2/5"], capsys)
    assert code == 0
    assert out.splitlines() == [f"ok: {name}" for _, _, name in BROKEN_LAWS]


@pytest.mark.parametrize("target, broken, name", BROKEN_LAWS, ids=[n for _, _, n in BROKEN_LAWS])
def test_verify_fails_only_the_broken_check(target, broken, name, capsys, monkeypatch):
    monkeypatch.setattr(oracle, target, broken)
    code, out, _ = run_cli(["verify", "-p", "3", "2/5"], capsys)
    assert code == 1
    assert out.splitlines() == [
        f"{'FAIL' if check == name else 'ok'}: {check}" for _, _, check in BROKEN_LAWS
    ]


@pytest.mark.parametrize(
    "argv, expected_out, message",
    [
        (
            ["sweep", "--primes", "3", "--max-num", "2", "--max-den", "1"],
            ",".join(SWEEP_COLUMNS) + "\r\n",  # the header only: the first row fails
            "FAIL: schneider reconstruction failed at p=3, -2/1\n",
        ),
        (
            ["expand-schneider", "-p", "3", "2/5"],
            "",
            "FAIL: schneider reconstruction failed at p=3, 2/5\n",
        ),
    ],
    ids=["sweep", "expand-schneider"],
)
def test_planted_schneider_defect_exits_1(argv, expected_out, message, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "schneider_pair", lambda head, tail, p: (0, 1))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == expected_out
    assert err == message


def _zero_tail(a, b, p, *first):
    # the expansion with its tail value set to 0: schneider_pair raises ZeroDivisionError on it
    return schneider.schneider_expand(a, b, p, *first)._replace(tail=(0, 1))


@pytest.mark.parametrize(
    "argv, expected_out, message",
    [
        (["expand-schneider", "-p", "3", "--json", "43/28"], "",
         "FAIL: schneider reconstruction failed at p=3, 43/28\n"),
        (["expand-schneider", "-p", "3", "43/28"], "",
         "FAIL: schneider reconstruction failed at p=3, 43/28\n"),
        (["sweep", "--primes", "3", "--max-num", "2", "--max-den", "1"], ",".join(SWEEP_COLUMNS) + "\r\n",
         "FAIL: schneider reconstruction failed at p=3, -2/1\n"),
    ],
    ids=["expand-schneider json", "expand-schneider text", "sweep"],
)
def test_zero_tail_is_a_failed_reconstruction(argv, expected_out, message, capsys, monkeypatch):
    # schneider_pair's ZeroDivisionError is the reconstruction check failing, named with the input
    monkeypatch.setattr(oracle, "schneider_expand", _zero_tail)
    assert run_cli(argv, capsys) == (1, expected_out, message)


def test_zero_tail_fails_verify(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "schneider_expand", _zero_tail)
    code, out, _ = run_cli(["verify", "-p", "3", "43/28"], capsys)
    assert code == 1
    assert "FAIL: schneider reconstruction" in out.splitlines()
    assert not oracle.schneider_reconstruction(43, 28, _zero_tail(43, 28, 3)).ok


@pytest.mark.parametrize(
    "argv",
    [
        ["expand-browkin", "-p", "3", "365/54"],
        ["expand-browkin", "-p", "3", "--json", "365/54"],
        ["sweep", "--primes", "3,5", "--max-num", "12", "--max-den", "12"],
    ],
    ids=["text", "json", "sweep"],
)
def test_bound_reads_the_certified_beta0(argv, capsys, monkeypatch):
    # a record's beta0 off by a factor 1000: the bound and the printed beta_0 come off the
    # reconstruction's betas, so every output is the natural one
    want = run_cli(argv, capsys)
    assert want[0] == 0

    def inflated(a, b, p, *first):
        expansion = browkin.browkin_expand(a, b, p, *first)
        return expansion._replace(beta0=1000 * expansion.beta0)

    monkeypatch.setattr(oracle, "browkin_expand", inflated)
    assert run_cli(argv, capsys) == want


def test_a_malformed_browkin_record_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # a record with no steps fails the reconstruction in every command that prints it, and one
    # whose beta0 is 0 or -2 forms no bound report, so verify fails the length bound: each
    # exits 1 naming the check, not 2 with a usage error.  expand-browkin and sweep read
    # beta_0 off the reconstruction, so the beta0 plants leave their output as it was
    sweep = ["sweep", "--primes", "3", "--max-num", "2", "--max-den", "1", "--out", str(tmp_path / "s.csv")]
    unaffected = [["expand-browkin", "-p", "3", "365/54"], ["expand-browkin", "-p", "3", "--json", "365/54"],
                  sweep]
    natural = [run_cli(argv, capsys) for argv in unaffected]
    assert all(code == 0 for code, _, _ in natural)

    def plant(**fields):
        monkeypatch.setattr(oracle, "browkin_expand",
                            lambda a, b, p, *first: browkin.browkin_expand(a, b, p, *first)._replace(**fields))

    plant(steps=())
    for argv, text in zip(unaffected, ["365/54", "365/54", "-2/1"]):
        assert run_cli(argv, capsys) == (1, "", f"FAIL: browkin reconstruction failed at p=3, {text}\n"), argv
    code, out, err = run_cli(["verify", "-p", "3", "365/54"], capsys)
    assert code == 1 and "FAIL: browkin reconstruction" in out.splitlines() and err == ""
    for beta0 in (0, -2):
        plant(beta0=beta0)
        code, out, err = run_cli(["verify", "-p", "3", "365/54"], capsys)
        assert code == 1 and "FAIL: browkin length bound" in out.splitlines() and err == "", beta0
        assert [run_cli(argv, capsys) for argv in unaffected] == natural, beta0


def test_a_deeper_last_step_fails_expand_schneider_in_text(capsys, monkeypatch):
    # the record's value is right, so the reconstruction passes it; the y trace that text
    # mode prints is the matrix laws' own chain, and that chain is inexact at the last step
    monkeypatch.setattr(oracle, "schneider_expand", _deeper_last_step)
    code, out, err = run_cli(["expand-schneider", "-p", "3", "1259/701"], capsys)
    assert (code, out, err) == (1, "", "FAIL: schneider matrix laws failed at p=3, 1259/701\n")


def _flipped_marker(a, b, p, *first):
    # the tail marker flipped, the steps and the tail kept: a stationary record called a finite
    # end, or a finite end called stationary from its end.  The value is unchanged, and neither
    # the reconstruction nor the matrix laws read the markers
    expansion = schneider.schneider_expand(a, b, p, *first)
    if expansion.finite_end:
        return expansion._replace(stationary_from=len(expansion.steps), finite_end=False)
    return expansion._replace(stationary_from=None, finite_end=True)


def _extra_stationary_step(a, b, p, *first):
    # one (p-1, 1) step more before the stationary tail: the same value, as -1 = (p-1) + p/(-1)
    expansion = schneider.schneider_expand(a, b, p, *first)
    assert expansion.stationary_from is not None
    steps = (*expansion.steps, schneider.SchneiderStep(p - 1, 1))
    return expansion._replace(steps=steps, stationary_from=len(steps))


TAIL_PLANTS = [(plant, text) for plant in (_deeper_last_step, _flipped_marker)
               for text in ("1259/701", "43/28", "2/5")]
TAIL_PLANTS += [(_extra_stationary_step, text) for text in ("1259/701", "2/5")]  # 43/28 ends


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("plant, text", TAIL_PLANTS, ids=[f"{f.__name__}-{t}" for f, t in TAIL_PLANTS])
def test_tail_defects_fail_expand_schneider(plant, text, json_flag, capsys, monkeypatch):
    # each record has a/b's value, so the reconstruction passes it; the tail laws fix where the
    # expansion stops, and fail it in both modes before anything is printed.  Text mode walks
    # the matrix laws first, which fail a deeper last step on their own
    a, b = _reduced(text)
    planted = plant(a, b, 3)
    assert oracle.schneider_reconstruction(a, b, planted).ok
    assert not oracle.schneider_tail_laws(planted).ok
    monkeypatch.setattr(oracle, "schneider_expand", plant)
    argv = ["expand-schneider", "-p", "3", *(["--json"] if json_flag else []), text]
    name = "schneider matrix laws" if plant is _deeper_last_step and not json_flag else "schneider tail laws"
    assert run_cli(argv, capsys) == (1, "", f"FAIL: {name} failed at p=3, {text}\n")


def test_tail_laws_hold_on_every_natural_record():
    # finite ends, stationary tails, records with no step, long heads and large p
    count = 0
    for p in (3, 5, 7, 101, 10**9 + 7):
        inputs = [(a, b) for b in range(1, 30) for a in range(-30, 31)
                  if a % p and b % p and gcd(a, b) == 1]
        inputs += [schneider.generate_constant_head(1, 2, 300, p), (-1, 1), (p - 1, 1)]
        for a, b in inputs:
            expansion = schneider.schneider_expand(a, b, p)
            assert oracle.schneider_tail_laws(expansion).ok, (p, a, b)
            count += 1
    assert count > 4000


def test_matrix_laws_keep_the_y_trace(capsys, monkeypatch):
    # ys receives y_1, ..., y_N, the replay's trace on every natural record; text
    # expand-schneider prints that list, and --json prints no y and asks for no chain
    for p, text in ((3, "2/5"), (3, "1259/701"), (5, "3044/673"), (7, "-1"), (101, "123456789" * 6 + "/17")):
        a, b = _reduced(text)
        expansion = schneider.schneider_expand(a, b, p)
        ys = []
        assert oracle.schneider_matrix_laws(a, b, expansion, ys).ok
        assert ys == y_trace(expansion), (p, text)
    original, kept = oracle.schneider_matrix_laws, []

    def recorded(a, b, expansion, ys=None):
        check = original(a, b, expansion, ys)
        kept.append(ys)
        return check

    monkeypatch.setattr(oracle, "schneider_matrix_laws", recorded)
    code, out, _ = run_cli(["expand-schneider", "-p", "3", "1259/701"], capsys)
    assert code == 0 and len(kept) == 1
    assert "y trace: " + ", ".join(map(str, kept[0])) + "\n" in out
    kept.clear()
    assert run_cli(["expand-schneider", "-p", "3", "--json", "1259/701"], capsys)[0] == 0
    assert kept == []


def test_planted_prefix_defect_fails_digits(capsys, monkeypatch):
    monkeypatch.setattr(digits.PAdicDigits, "prefix_sum", lambda self, length: 0)
    code, out, err = run_cli(["digits", "-p", "5", "-n", "7", "--", "-1793/100"], capsys)
    assert code == 1
    assert out == ""
    assert err == "FAIL: digit truncation identity failed at p=5, -1793/100\n"


def test_require_passes_and_names_first_failure():
    oracle.require(3, 2, 5, oracle.Check("a", True), oracle.Check("b", True))
    with pytest.raises(oracle.VerificationError, match=r"^b failed at p=3, 2/5$"):
        oracle.require(3, 2, 5, oracle.Check("a", True), oracle.Check("b", False), oracle.Check("c", False))


def test_matrix_laws_catch_an_off_by_one_valuation():
    # keep the expansion and its matrices, move r so that r - U_m/W_m at the last
    # prefix has valuation s + 1, s - 1 or is zero: only the valuation law can fail
    big = Fraction(-(10**120 + 7), 3**60 + 2)
    for p, r in ((3, Fraction(2, 5)), (3, Fraction(1259, 701)), (5, Fraction(3044, 673)), (7, big)):
        expansion = schneider.schneider_expand(r.numerator, r.denominator, p)
        assert oracle.schneider_matrix_laws(r.numerator, r.denominator, expansion).ok
        u, _, w, _ = list(schneider.schneider_convergents(expansion))[-1]
        value = Fraction(u, w)
        for planted in (value + (r - value) * p, value + (r - value) / p, value):
            a, b = planted.numerator, planted.denominator
            assert not oracle.schneider_matrix_laws(a, b, expansion).ok, (p, r, planted)


@pytest.mark.parametrize("a, b, p", [(-1, 1, 3), (-1, 1, 101), (2, 1, 3), (1, 1, 5)])
def test_matrix_laws_hold_on_zero_steps(a, b, p):
    # stationary or finite from the start: no matrix, and the laws hold with nothing
    # to check, so a step count that does not start at 0 fails here
    expansion = schneider.schneider_expand(a, b, p)
    assert expansion.steps == ()
    assert oracle.schneider_matrix_laws(a, b, expansion).ok


@pytest.mark.parametrize(
    "core, check, a, b, expansion",
    [
        ("cf_pair", oracle.browkin_reconstruction, 365, 54, browkin.browkin_expand(365, 54, 3)),
        ("schneider_pair", oracle.schneider_reconstruction, 1259, 701,
         schneider.schneider_expand(1259, 701, 3)),
    ],
    ids=["browkin", "schneider"],
)
def test_reconstruction_cross_multiplies_the_pair(core, check, a, b, expansion, monkeypatch):
    # the core's pair is unreduced: any nonzero multiple of (a, b) passes, and a
    # zero denominator fails even where num * b == den * a holds (num = 0)
    assert check(a, b, expansion).ok
    planted = [
        ((0, 0), False),
        ((a, 0), False),
        ((a + 1, b), False),
        ((-a, b), False),
        ((a * 3**40, b * 3**40), True),
        ((-7 * a, -7 * b), True),
        ((a, b), True),  # s*(a, b), tested before any product
        ((-a, -b), True),
        ((a, -b), False),
        ((0, b), False),
    ]
    for pair, ok in planted:
        monkeypatch.setattr(oracle, core, lambda *args, pair=pair: pair)
        assert check(a, b, expansion).ok is ok, pair


@pytest.mark.parametrize(
    "argv, core, name",
    [
        (["expand-browkin", "-p", "3", "365/54"], "cf_pair", "browkin reconstruction"),
        (["expand-schneider", "-p", "3", "1259/701"], "schneider_pair", "schneider reconstruction"),
    ],
    ids=["browkin", "schneider"],
)
def test_zero_denominator_fails_and_unreduced_pair_passes(argv, core, name, capsys, monkeypatch):
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    original = getattr(oracle, core)

    def scaled(*args):
        num, den = original(*args)
        return -5 * num, -5 * den

    monkeypatch.setattr(oracle, core, scaled)
    assert run_cli(argv, capsys) == (0, want, "")
    monkeypatch.setattr(oracle, core, lambda *args: (0, 0))
    assert run_cli(argv, capsys) == (1, "", f"FAIL: {name} failed at p=3, {argv[-1]}\n")


def _reduced(text):
    r = Fraction(text)
    return r.numerator, r.denominator


def _back_substitution(off=None):
    # the textbook back-substitution (x*num + p**k*den, p**k*num), level N first, keeping
    # what cf_pair keeps (den / p**k at each level); the numerator after `off` levels is
    # one too large
    def planted(steps, p, numerators):
        kept, den = [], 1
        for i, (k, x) in enumerate(reversed(steps)):
            num, den = (x, p**k) if i == 0 else (x * num + p**k * den, p**k * num)
            kept.append(den // p**k)
            if i == off:
                num += 1
        if numerators is not None:
            numerators.extend(kept)
        return num, den

    return planted


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_one_numerator_off_fails_reconstruction_and_prints_nothing(json_flag, capsys, monkeypatch):
    # the printed betas are the back-substitution's own numerators: a pass that is
    # wrong at any one level fails the check before anything is printed
    for p, text in ((3, "365/54"), (5, "-1793/100"), (101, "7" * 40 + "/3")):
        argv = ["expand-browkin", "-p", str(p), *json_flag, "--", text]
        monkeypatch.undo()
        want = run_cli(argv, capsys)
        monkeypatch.setattr(oracle, "cf_pair", _back_substitution())
        assert run_cli(argv, capsys) == want  # the planted pass is faithful off its one change
        levels = len(browkin.browkin_expand(*_reduced(text), p).steps)
        for off in sorted({0, 1, levels // 2, levels - 1}):
            monkeypatch.setattr(oracle, "cf_pair", _back_substitution(off))
            assert run_cli(argv, capsys) == (1, "", f"FAIL: browkin reconstruction failed at p={p}, {text}\n")


def test_only_commands_that_print_betas_keep_numerators(capsys, monkeypatch):
    # verify's battery and the chain checks stream; expand-browkin and sweep take the
    # betas, and |beta_1|, off the reconstruction pass
    original, asked = oracle.cf_pair, []

    def recorded(steps, p, numerators):
        asked.append(numerators is not None)
        return original(steps, p, numerators)

    monkeypatch.setattr(oracle, "cf_pair", recorded)
    for argv, keeps in (
        (["verify", "-p", "3", "2/5"], False),
        (["expand-browkin", "-p", "3", "2/5"], True),
        (["expand-browkin", "-p", "3", "--json", "2/5"], True),
        (["sweep", "--primes", "3", "--max-num", "2", "--max-den", "2"], True),
    ):
        asked.clear()
        assert run_cli(argv, capsys)[0] == 0
        assert asked and set(asked) == {keeps}, argv


@pytest.mark.parametrize("p", [3, 101, 10**9 + 7])
def test_one_changed_quotient_fails_reconstruction_and_determinant(p):
    # at p = 3 one changed quotient makes a complete quotient 0 on the way back:
    # cf_pair raises ZeroDivisionError, and the reconstruction check fails
    a, b = _reduced("7" * 300 + "/" + "2" * 299 + "5")
    expansion = browkin.browkin_expand(a, b, p)
    assert oracle.browkin_reconstruction(a, b, expansion).ok
    assert oracle.determinant_identity(a, b, expansion).ok
    steps = expansion.steps
    for n in (0, 1, len(steps) // 2, len(steps) - 1):
        changed = steps[:n] + (steps[n]._replace(x=steps[n].x + 1),) + steps[n + 1:]
        planted = expansion._replace(steps=changed)
        assert not oracle.browkin_reconstruction(a, b, planted).ok, n
        assert not oracle.determinant_identity(a, b, planted).ok, n


@pytest.mark.parametrize(
    "check, a, b, expansion",
    [
        (oracle.determinant_identity, 365, 54, browkin.browkin_expand(365, 54, 3)),
        (oracle.schneider_matrix_laws, 1259, 701, schneider.schneider_expand(1259, 701, 3)),
    ],
    ids=["determinant identity", "schneider matrix laws"],
)
def test_prefixes_of_the_wrong_length_fail(check, a, b, expansion):
    # the checks walk the record's own steps: with its last step dropped, or any one
    # step repeated, the record fails
    steps = expansion.steps
    assert check(a, b, expansion).ok
    for changed in [steps[:-1], *(steps[:n + 1] + steps[n:] for n in range(len(steps)))]:
        assert not check(a, b, expansion._replace(steps=changed)).ok, changed


@pytest.mark.parametrize("p, text", [(3, "2/5"), (3, "365/54"), (5, "-1793/100")])
def test_a_split_last_step_fails_the_determinant_identity(p, text):
    # (k_N, x_N) becomes (k_N, x_N - p**k_N) and then (0, 1): the same value, so the
    # reconstruction and the length bound pass it, but a step with k = 0 after the
    # first is no Browkin step
    a, b = _reduced(text)
    expansion = browkin.browkin_expand(a, b, p)
    *head, (k, x) = expansion.steps
    split = (browkin.BrowkinStep(k, x - p**k), browkin.BrowkinStep(0, 1))
    planted = expansion._replace(steps=(*head, *split))
    report = browkin.browkin_bound(planted.beta0, beta1_abs(planted), p)
    assert oracle.browkin_reconstruction(a, b, planted).ok
    assert oracle.browkin_length_bound(planted, report).ok
    assert oracle.determinant_identity(a, b, expansion).ok
    assert not oracle.determinant_identity(a, b, planted).ok


def _first_quotient_out_of_range(a, b, p):
    # x_0 + p**(1+k_0) for x_0, then the Browkin expansion of the complete quotient
    # that leaves: an exact beta chain of the same value, down to delta_N = 0
    expansion = browkin.browkin_expand(a, b, p)
    k0, x0 = expansion.steps[0]
    x0 += p ** (1 + k0)
    shift, beta1 = vp_split(a - x0 * expansion.beta0, p)
    sign = 1 if beta1 > 0 else -1
    rest = browkin.browkin_expand(sign * expansion.beta0, sign * beta1 * p ** (shift - k0), p)
    return expansion._replace(steps=(browkin.BrowkinStep(k0, x0), *rest.steps))


def test_a_quotient_out_of_range_fails_the_determinant_identity():
    # 2|x_n| < p**(1+k_n) alone fails these records: the first with its first quotient
    # one modulus off, the second a one-step record a/p**k0 with 2|a| > p**(1+k0)
    for p, text in ((3, "365/54"), (5, "-1793/100"), (7, "123456789/1000")):
        a, b = _reduced(text)
        planted = _first_quotient_out_of_range(a, b, p)
        assert oracle.browkin_reconstruction(a, b, planted).ok
        assert not oracle.determinant_identity(a, b, planted).ok, (p, text)
    planted = browkin.browkin_expand(100, 9, 3)._replace(steps=(browkin.BrowkinStep(2, 100),))
    assert oracle.browkin_reconstruction(100, 9, planted).ok
    assert not oracle.determinant_identity(100, 9, planted).ok


def test_determinant_identity_fails_on_the_record_of_another_input():
    # the chain of 365/54 is exact from its own (alpha, beta0): it must also be the input's
    expansion = browkin.browkin_expand(365, 54, 3)
    assert oracle.determinant_identity(365, 54, expansion).ok
    for a, b in ((367, 54), (365, 56), (365, 18)):
        assert not oracle.determinant_identity(a, b, expansion).ok, (a, b)
    assert not oracle.determinant_identity(365, 54, expansion._replace(steps=())).ok


def test_matrix_laws_fail_a_step_with_no_power_of_p():
    # 7/2 = 1 + 1/(5/2) at p = 3: a (1, 0) step, then the steps of 2/5; every division
    # is exact, yet alpha_0 = 0 is no Schneider step
    expansion = schneider.schneider_expand(2, 5, 3)
    planted = expansion._replace(a=7, b=2, steps=(schneider.SchneiderStep(1, 0), *expansion.steps))
    assert oracle.schneider_reconstruction(7, 2, planted).ok
    assert not oracle.schneider_matrix_laws(7, 2, planted).ok


def test_matrix_laws_fail_a_last_eps_divisible_by_p():
    # the last step's alpha - 1 and the tail (num, p*den): the same value and an exact
    # chain, but the last prefix's valuation is one above its exponent sum
    for p, text in ((3, "1259/701"), (5, "3044/673")):
        a, b = _reduced(text)
        expansion = schneider.schneider_expand(a, b, p)
        *head, (digit, alpha) = expansion.steps
        assert alpha >= 2
        num, den = expansion.tail
        planted = expansion._replace(steps=(*head, schneider.SchneiderStep(digit, alpha - 1)), tail=(num, p * den))
        assert oracle.schneider_reconstruction(a, b, planted).ok
        assert not oracle.schneider_matrix_laws(a, b, planted).ok, (p, text)


def _digit_past_p(expansion):
    # the last step (d, 1) made (d + p, 1) and the tail (num, den - num): the same value, as
    # p/(num/(den - num)) = p/(num/den) - p, and an exact eps chain to the new tail
    p, (num, den) = expansion.p, expansion.tail
    *head, (digit, alpha) = expansion.steps
    assert alpha == 1
    return expansion._replace(steps=(*head, schneider.SchneiderStep(digit + p, 1)), tail=(num, den - num))


def test_matrix_laws_fail_a_digit_out_of_range():
    # only 1 <= b_m <= p-1 tells these records from the expansion: planted, the record of
    # -56 at p = 3 ends in (4, 1) with the tail (-1, 2); so does every plant of the grid
    planted = _digit_past_p(schneider.schneider_expand(-56, 1, 3))
    assert (planted.steps[-1], planted.tail) == ((4, 1), (-1, 2))
    assert oracle.schneider_reconstruction(-56, 1, planted).ok
    assert not oracle.schneider_matrix_laws(-56, 1, planted).ok
    count = 0
    for p in (3, 5, 7):
        for b in range(1, 25):
            for a in range(-25, 26):
                if a % p == 0 or b % p == 0 or gcd(a, b) != 1:
                    continue
                expansion = schneider.schneider_expand(a, b, p)
                if not expansion.steps or expansion.steps[-1].alpha != 1:
                    continue
                assert oracle.schneider_matrix_laws(a, b, expansion).ok
                changed = _digit_past_p(expansion)
                assert oracle.schneider_reconstruction(a, b, changed).ok, (p, a, b)
                assert not oracle.schneider_matrix_laws(a, b, changed).ok, (p, a, b)
                count += 1
    assert count > 1000


def _planted_trace(expansion, betas, monkeypatch):
    # the record with beta0 = betas[0], and the oracle's chain planted to yield betas[1:]
    # as exact quotients, whatever the record's links
    monkeypatch.setattr(oracle, "_walk", lambda p, y_prev, y_cur, links: iter([(beta, 0) for beta in betas[1:]]))
    return expansion._replace(beta0=betas[0])


def test_step_law_catches_every_beta_mutant_the_global_majorant_catches(monkeypatch):
    # change one replayed beta to 2*beta + 1 or to 0; wherever some |beta_i| > theta_i,
    # theta_sequence from the planted trace's |beta_0| and |beta_1| (the majorant reads
    # the record's beta0 and the chain alone), the step law fails too
    caught = 0
    for p, text in ((3, "365/54"), (5, "-1793/100"), (7, "123456789/1000"), (101, "7" * 40 + "/3")):
        expansion = browkin.browkin_expand(*_reduced(text), p)
        betas = beta_trace(expansion)
        for n in range(len(betas)):
            for beta in (2 * betas[n] + 1, 0):
                planted = betas[:n] + [beta] + betas[n + 1:]
                record = _planted_trace(expansion, planted, monkeypatch)
                beta1 = abs(planted[1]) if len(planted) > 1 else 0
                thetas = browkin.theta_sequence(abs(planted[0]), beta1, p, max(2, len(planted)))
                if any(abs(b) > theta for b, theta in zip(planted, thetas)):
                    assert not oracle.majorant(record).ok, (p, text, n, beta)
                    caught += 1
    assert caught > 0


@pytest.mark.parametrize(
    "trace, ok",
    [
        ([5], True),
        ([5, 100], True),  # the law starts at beta_2
        ([9, 2, 2], True),  # 18*2 == 9*2 + 2*9: the law holds with equality
        ([-9, 2, -2], True),  # on magnitudes
        ([9, 2, 3], False),
        ([100, 1, 1, 1], False),  # fails at beta_3, from beta_2 and beta_1, not beta_0
        ([100, 10, 1, 2], False),  # fails at beta_3: 36 > 9*1 + 2*10
    ],
)
def test_majorant_checks_the_step_law_on_each_window(trace, ok, monkeypatch):
    # 2p**2 |beta_i| <= p**2 |beta_{i-1}| + 2|beta_{i-2}| at p = 3, on planted traces
    record = _planted_trace(browkin.browkin_expand(2, 5, 3), trace, monkeypatch)
    assert oracle.majorant(record).ok is ok


def test_digit_truncation_identity_fails_on_any_one_wrong_digit():
    # the one test of the full window covers each digit, the last one included
    for p, text in ((3, "2/5"), (5, "-1793/100"), (7, "123456789/1000")):
        a, b = _reduced(text)
        window = digits.padic_digits(a, b, p, 12)
        assert oracle.digit_truncation_identity(a, b, window).ok
        for i in range(window.count):
            wrong = window.digits[:i] + (window.digits[i] + 1,) + window.digits[i + 1:]
            assert not oracle.digit_truncation_identity(a, b, window._replace(digits=wrong)).ok, (p, text, i)


def test_length_bound_passes_n_plus_one_steps_and_fails_one_more():
    # len(steps) <= N + 1 exactly: with N = len(steps) - 1 it holds, with one less it
    # fails, so a check loosened or tightened by one step is caught
    for p, text in ((3, "365/54"), (5, "-1793/100"), (7, "123456789/1000"), (101, "7" * 40 + "/3")):
        expansion = browkin.browkin_expand(*_reduced(text), p)
        report, length = browkin.browkin_bound(expansion.beta0, beta1_abs(expansion), p), len(expansion.steps)
        assert oracle.browkin_length_bound(expansion, report._replace(n_bound=length - 1)).ok
        assert not oracle.browkin_length_bound(expansion, report._replace(n_bound=length - 2)).ok


def test_battery_memory_stays_near_the_input_size():
    # the checks stream their chains: an oracle that built every prefix
    # list peaked at 38 MB here, the streaming one stays below 1 MB
    a, b = _reduced("7" * 1000 + "/" + "2" * 999 + "5")
    tracemalloc.start()
    try:
        checks = oracle.battery(a, b, 10**9 + 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [check.ok for check in checks] == [True] * 8
    assert peak < 8 * 2**20, peak


def _later_stationary_index(a, b, p, *first):
    # stationary_from one index later on a stationary record: the steps and the tail, and so
    # the value, are kept, and the reconstruction does not read the marker
    expansion = schneider.schneider_expand(a, b, p, *first)
    if expansion.stationary_from is None:
        return expansion
    return expansion._replace(stationary_from=expansion.stationary_from + 1)


def test_a_later_stationary_index_fails_sweep(tmp_path, capsys, monkeypatch):
    # the sweep certifies the stationarity column by the tail laws: the first stationary input
    # exits 1, named with its check, and its row is not written
    argv = ["sweep", "--primes", "3,5", "--max-num", "6", "--max-den", "4", "--out", str(tmp_path / "sweep.csv")]
    assert run_cli(argv, capsys)[0] == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    first = next(i for i, row in enumerate(rows[1:], 1) if row.split(",")[-1])
    p, a, b = rows[first].split(",")[:3]
    monkeypatch.setattr(oracle, "schneider_expand", _later_stationary_index)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"FAIL: schneider tail laws failed at p={p}, {a}/{b}\n")
    assert (tmp_path / "sweep.csv").read_text().splitlines() == rows[:first]


def _rotated_period(start, preperiod, period):
    return start, preperiod, period[1:] + period[:1]


def _doubled_period(start, preperiod, period):
    return start, preperiod, period * 2


def _longer_preperiod(start, preperiod, period):
    return start, preperiod + period[:1], period[1:] + period[:1]


@pytest.mark.parametrize("plant", [_rotated_period, _doubled_period, _longer_preperiod],
                         ids=["rotated", "doubled", "longer-preperiod"])
def test_a_wrong_period_fails_digits_json(plant, capsys, monkeypatch):
    # a rotated period changes the value; a doubled period and a preperiod one digit longer keep
    # it, and fail the minimality tests.  Each exits 1 before anything is printed
    monkeypatch.setattr(oracle, "digit_period", lambda a, b, p: plant(*digits.digit_period(a, b, p)))
    for p, text in ((3, "1/7"), (5, "-1793/700"), (7, "2/15"), (3, "-45/4")):
        code, out, err = run_cli(["digits", "-p", str(p), "-n", "8", "--json", "--", text], capsys)
        assert (code, out, err) == (1, "", f"FAIL: digit period identity failed at p={p}, {text}\n")


def test_digit_period_identity_holds_on_natural_splits():
    # every split digit_period finds, p in the numerator, the denominator or neither, and zero;
    # a digit out of the symmetric range fails with the value kept
    count = 0
    for p in (3, 5, 7, 101):
        for b in range(1, 60):
            for a in range(-40, 41):
                if gcd(a, b) != 1:
                    continue
                start, preperiod, period = digits.digit_period(a, b, p)
                assert oracle.digit_period_identity(a, b, p, start, preperiod, period).ok, (p, a, b)
                count += 1
    assert count > 10000
    start, preperiod, period = digits.digit_period(1, 2, 3)  # 1/2 = -1/(1 - 3): the period (-1,)
    assert (start, preperiod, period) == (0, (), (-1,))
    assert not oracle.digit_period_identity(1, 2, 3, 0, (2,), (1,)).ok  # 1/2 = 2 + 3/(1 - 3), 2 out of range
    assert not oracle.digit_period_identity(1, 2, 3, 0, (), ()).ok


def _flipped_last_quotient(a, b, p, *first):
    # the last x_n negated: another value, so the reconstruction fails
    expansion = browkin.browkin_expand(a, b, p, *first)
    *head, (k, x) = expansion.steps
    return expansion._replace(steps=(*head, browkin.BrowkinStep(k, -x)))


_PLANTED_ARGV = {
    "expand-browkin": ["expand-browkin", "-p", "3", "1259/701"],
    "expand-browkin --json": ["expand-browkin", "-p", "3", "--json", "1259/701"],
    "expand-schneider": ["expand-schneider", "-p", "3", "1259/701"],
    "expand-schneider --json": ["expand-schneider", "-p", "3", "--json", "1259/701"],
    "digits": ["digits", "-p", "3", "-n", "8", "1259/701"],
    "digits --json": ["digits", "-p", "3", "-n", "8", "--json", "1259/701"],
    "sweep": ["sweep", "--primes", "3", "--max-num", "2", "--max-den", "1"],
}

def _negated_key(a, b, p):
    # browkin_betas with delta_0 negated: a row that misses its line's store hands the kernel
    # that delta_0, which it goes on from, and a row that hits takes the tail of the opposite
    # delta_0, and its resumed reconstruction the betas stored with it
    first, beta0, delta = browkin.browkin_betas(a, b, p)
    return first, beta0, -delta


def _step_at_minus_one(a, b, p):
    # schneider_first_step without its a + b != 0 exclusion: -1/1 gets the step (p-1, 1) to
    # y_1 = -1, the key -2/1 stores
    if a + b == 0:
        return schneider.SchneiderStep(p - 1, 1), -1
    return schneider.schneider_first_step(a, b, p)


# each kernel that makes a certified record, and each step function that gives a sweep row its
# first step, a plant that breaks one law of that record, and for each command that prints the
# record, the check it fails and the input it fails at.  A row hands its kernel the first step
# it took, so _negated_key fails at the sweep's first row, a kernel row, and _step_at_minus_one
# at -1/1, the one row it changes; the Schneider and period plants keep the value
ONE_NAMESPACE_PLANTS = [
    ("browkin_expand", _flipped_last_quotient,
     {"expand-browkin": ("browkin reconstruction", "1259/701"),
      "expand-browkin --json": ("browkin reconstruction", "1259/701"),
      "sweep": ("browkin reconstruction", "-2/1"),
      "verify": ("browkin reconstruction", "1259/701")}),
    ("browkin_betas", _negated_key, {"sweep": ("browkin reconstruction", "-2/1")}),
    ("schneider_expand", _deeper_last_step,
     {"expand-schneider": ("schneider matrix laws", "1259/701"),
      "expand-schneider --json": ("schneider tail laws", "1259/701"),
      "sweep": ("schneider tail laws", "-2/1"),
      "verify": ("schneider matrix laws", "1259/701")}),
    ("schneider_first_step", _step_at_minus_one, {"sweep": ("schneider tail laws", "-1/1")}),
    ("padic_digits", _wrong_first_digit,
     {"digits": ("digit truncation identity", "1259/701"),
      "digits --json": ("digit truncation identity", "1259/701"),
      "verify": ("digit truncation identity", "1259/701")}),
    ("digit_period", lambda a, b, p: _doubled_period(*digits.digit_period(a, b, p)),
     {"digits --json": ("digit period identity", "1259/701")}),
]


@pytest.mark.parametrize("kernel, plant, failures", ONE_NAMESPACE_PLANTS,
                         ids=[kernel for kernel, _, _ in ONE_NAMESPACE_PLANTS])
def test_a_kernel_planted_in_oracle_reaches_every_command(kernel, plant, failures, tmp_path, capsys,
                                                          monkeypatch):
    # the oracle alone calls the kernels whose records a command prints: a plant in its
    # globals reaches every such command, which exits 1 before printing, named with its check
    monkeypatch.setattr(oracle, kernel, plant)
    for command, (check, text) in failures.items():
        if command == "verify":  # the battery prints every verdict, the failed one among them
            code, out, _ = run_cli(["verify", "-p", "3", text], capsys)
            assert code == 1 and f"FAIL: {check}" in out.splitlines(), kernel
            continue
        argv = _PLANTED_ARGV[command] + (["--out", str(tmp_path / "sweep.csv")] if command == "sweep" else [])
        assert run_cli(argv, capsys) == (1, "", f"FAIL: {check} failed at p=3, {text}\n"), command


def test_cli_reads_only_the_certificates_off_the_oracle():
    # cli imports no kernel that makes a certified record and names no check: every check on
    # a command's path runs inside oracle, picked by one certificate function per record kind.
    # `bound` reads browkin_betas off cli's own globals and prints its values unchecked
    for kernel, _, _ in ONE_NAMESPACE_PLANTS:
        assert kernel not in vars(cli) or kernel == "browkin_betas", kernel
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "oracle"}
    assert read == {"certified_browkin", "certified_schneider", "certified_digits", "battery"}
