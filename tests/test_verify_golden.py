"""``qcnet verify`` output, byte for byte.

The histograms and resample counts depend on every float the oracle
draws, so these pin its random stream: the seed scheme, which variables
are sampled and in which order, and how many draws each takes.  The
mixed file interleaves probability, possibility and belief variables in
name order and has two-parent links of each formalism; the wide epsilons
make some perturbations infeasible, so resampling shows in the counts.
"""

from pathlib import Path

import pytest

from qcnet.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
MEDICAL = str(ROOT / "samples" / "medical.qn")
MIXED = str(ROOT / "tests" / "data" / "mixed.qn")
POSS = str(ROOT / "tests" / "data" / "poss.qn")

MEDICAL_INCREASE = (
    "# target=s direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "a\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "l\t0,0\t-\tBRIDGE\n"
    "p\t+0,-0\t-\tBRIDGE\n"
    "s\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "v\t-,+\tx[-=200] ~x[+=200]\tPASS\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
)

MEDICAL_DECREASE = (
    "# target=s direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "a\t-,+\tx[-=200] ~x[+=200]\tPASS\n"
    "l\t0,0\t-\tBRIDGE\n"
    "p\t-0,+0\t-\tBRIDGE\n"
    "s\t-,+\tx[-=200] ~x[+=200]\tPASS\n"
    "v\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
)

MEDICAL_WIDE_EPSILON = (
    "# target=s direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "a\t+,-\tx[+=300] ~x[-=300]\tPASS\n"
    "l\t0,0\t-\tBRIDGE\n"
    "p\t+0,-0\t-\tBRIDGE\n"
    "s\t+,-\tx[+=300] ~x[-=300]\tPASS\n"
    "v\t-,+\tx[-=300] ~x[+=300]\tPASS\n"
    "# trials=300 completed=300 resampled=96 skipped=0\n"
    "# target=t direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "k\t-,+\tx[-=300] ~x[+=300]\tPASS\n"
    "p\t?,+0\t-\tBRIDGE\n"
    "t\t-,+\tx[-=300] ~x[+=300]\tPASS\n"
    "# trials=300 completed=300 resampled=100 skipped=0\n"
)

MIXED_ALL_FORMALISMS = (
    "# target=a direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "a\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "e\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "j\t?,?\t-\tBRIDGE\n"
    "k\t+,-\tx[+=200] ~x[-=200]\tPASS\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
    "# target=b direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "b\t-,?\tx[-=200] ~x[0=200]\tPASS\n"
    "g\t?,?\tx[+=103,-=97] ~x[+=78,-=122]\tPASS\n"
    "j\t?,?\t-\tBRIDGE\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
    "# target=f direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "f\t+,-0\tx[+=200] ~x[0=200]\tPASS\n"
    "i\t?,?\tx[0=200] ~x[0=200]\tPASS\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
    "# target=h direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "h\t-,+0\tx[-=200] ~x[+=200]\tPASS\n"
    "i\t-0,?\tx[0=200] ~x[-=200]\tPASS\n"
    "# trials=200 completed=200 resampled=0 skipped=0\n"
)

MIXED_WIDE_EPSILON = (
    "# target=c direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "c\t-,+\tx[-=250] ~x[+=250]\tPASS\n"
    "e\t-,+\tx[-=250] ~x[+=250]\tPASS\n"
    "j\t?,?\t-\tBRIDGE\n"
    "k\t-,+\tx[-=250] ~x[+=250]\tPASS\n"
    "# trials=250 completed=250 resampled=85 skipped=0\n"
    "# target=d direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "d\t+,?\tx[+=250] ~x[0=250]\tPASS\n"
    "g\t?,?\tx[+=212,-=38] ~x[+=250]\tPASS\n"
    "j\t?,?\t-\tBRIDGE\n"
    "# trials=250 completed=250 resampled=141 skipped=0\n"
)

# possibility checks are draw-free (every possibility root has its prior),
# so one trial stands for all 50; the belief target g draws its prior
POSS_STATES = (
    "# target=a direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "a\t-,+0\tx[-=50] ~x[+=50]\tPASS\n"
    "b\t+0,?\tx[+=50] ~x[0=50]\tPASS\n"
    "e\t?,?\tx[-=50] ~x[+=50]\tPASS\n"
    "# trials=50 completed=50 resampled=0 skipped=0\n"
    "# target=c direction=increase\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "c\t+,-0\tx[+=50] ~x[0=50]\tPASS\n"
    "e\t?,+\tx[0=50] ~x[+=50]\tPASS\n"
    "# trials=50 completed=50 resampled=0 skipped=0\n"
    "# target=g direction=decrease\n"
    "variable\tpredicted\tobserved\tverdict\n"
    "g\t-,?\tx[-=50] ~x[0=50]\tPASS\n"
    "h\t-0,-0\t-\tBRIDGE\n"
    "# trials=50 completed=50 resampled=0 skipped=0\n"
)


@pytest.mark.parametrize(
    "path, evidence, trials, seed, epsilon, expected",
    [
        pytest.param(MEDICAL, "s=+", 200, 3, None, MEDICAL_INCREASE, id="medical_increase"),
        pytest.param(MEDICAL, "s=-", 200, 3, None, MEDICAL_DECREASE, id="medical_decrease"),
        pytest.param(MEDICAL, "s=+,t=-", 300, 11, "0.25", MEDICAL_WIDE_EPSILON, id="medical_wide_epsilon"),
        pytest.param(MIXED, "a=+,b=-,f=+,h=-", 200, 5, None, MIXED_ALL_FORMALISMS, id="mixed_all_formalisms"),
        pytest.param(MIXED, "c=-,d=+", 250, 9, "0.2", MIXED_WIDE_EPSILON, id="mixed_wide_epsilon"),
        pytest.param(POSS, "a=-,c=+,g=-", 50, 7, None, POSS_STATES, id="poss_states"),
    ],
)
def test_verify_output_is_pinned(path, evidence, trials, seed, epsilon, expected):
    argv = ["verify", path, "--evidence", evidence, "--trials", str(trials), "--seed", str(seed)]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    assert run_command(argv) == (0, expected)
