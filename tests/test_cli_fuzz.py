"""``cli.main`` on generated files and arguments: every case ends with a documented exit code.

Each case must exit 0, 2 (invalid input, argparse's usage errors included),
3 (not in image), 4 (round-trip failure) or 5 (out of memory).  A nonzero
exit prints one ``error:``, ``not in image`` or ``round-trip failure`` line
and no traceback; any other exception escapes ``main`` and fails the case.

Every size is kept small, so that no case allocates much memory or runs
long:

- a declared alphabet stays at or below 10^4 symbols, because the
  adaptive-rank codec still builds two lists of ``ns`` entries per pass
  whatever the sequence holds (10^9 would be gigabytes);
- ``--k`` stays at or below 64 and ``--trials`` at or below 3;
- ``--max-space`` stays at or below 2^10, so ``transform``, ``invert``,
  ``run`` and ``oracle --validate`` build and drive only small exact-sorted
  spaces (on a 2-CPU Xeon a build near the default 2^24 bound took about a
  second and 150-180 MB);
- ``run`` gets one worker, so no case starts a process.
"""
import contextlib
import io
import re
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from seqshape.cli import main
from seqshape.shaping import STRATEGIES

MAX_NS = 10**4
MAX_K = 64
MAX_TRIALS = 3
MAX_SPACE = 2**10

# each case is small; the bound catches one that is not
FUZZ = settings(max_examples=100, deadline=timedelta(seconds=20))


@st.composite
def mostly(draw, good, bad):
    """A draw from ``good``, or about one time in six from ``bad``.

    Every argument and file line can go wrong on its own, so drawing each
    from both halves evenly would leave almost no case that gets past the
    first check.
    """
    return draw(draw(st.sampled_from([good] * 5 + [bad])))


def int_arg(*ranges):
    """An integer option's text: mostly from ``ranges``, else text argparse rejects or reads oddly ("٣" is 3)."""
    good = st.one_of(*(st.integers(low, high) for low, high in ranges)).map(str)
    return mostly(good, st.sampled_from(["", "x", "1.5", "0x10", "٣", "--", "-1", "0"]))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


@st.composite
def sequence_files(draw):
    """Bytes of a sequence file: mostly well formed, else with bad lines or tokens, or arbitrary."""
    ns = draw(st.one_of(st.integers(2, 6), st.integers(7, MAX_NS)))
    header = draw(mostly(
        st.just(f"ns {ns}"),
        st.sampled_from(["", "ns", "ns 0", "ns 1", "ns -3", "ns 3 4", "NS 3", "ns ٣", "ns 1²", "ns 3.0"]),
    ))
    tokens = [str(s) for s in draw(st.lists(st.integers(0, ns - 1), min_size=1, max_size=40))]
    bad_tokens = draw(mostly(st.just([]), st.lists(
        st.sampled_from([str(ns), "-1", "1.5", "١", "²", "a", str(2**64), "+1", "\n"]), min_size=1, max_size=3
    )))
    for token in bad_tokens:
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    ending = draw(mostly(st.just("\n"), st.sampled_from(["", "\n\n", "\nextra\n", "\r\n"])))
    text = (header + "\n" + " ".join(tokens) + ending).encode()
    # no run of five digits, so no header declares more than 10^4 symbols
    return draw(mostly(st.just(text), st.binary(max_size=40).filter(lambda b: not re.search(rb"\d{5}", b))))


def run_main(argv, workdir):
    """``main``'s exit code and stderr, with argparse's ``SystemExit`` as its code."""
    argv = [arg.replace("{dir}", workdir) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_documented_exit(code, err):
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5), (code, err)
    assert "Traceback" not in err
    if code == 0:
        return
    lines = err.splitlines()
    usage_error = [line for line in lines if re.match(r"sst( \w+)?: error: ", line)]
    if usage_error:
        assert code == 2 and len(usage_error) == 1, err
    else:
        assert len(lines) == 1, err
        assert re.match(r"error: |not in image$|round-trip failure: ", lines[0]), err


# a path in the case's directory, or one whose directory is missing
PATHS = mostly(st.just("{dir}/out.txt"), st.just("{dir}/missing/out.txt"))
STRATEGY_ARGS = mostly(st.sampled_from(STRATEGIES), st.just("bogus"))
K_ARGS = optional("--k", int_arg((1, 3), (4, MAX_K)))


@FUZZ
@given(
    command=st.sampled_from(["transform", "invert"]),
    content=sequence_files(),
    source=mostly(st.just("{dir}/in.txt"), st.just("{dir}/missing.txt")),
    out=optional("--out", PATHS),
    k=K_ARGS,
    strategy=optional("--strategy", STRATEGY_ARGS),
    max_space=int_arg((2, MAX_SPACE)),
)
def test_transform_and_invert(command, content, source, out, k, strategy, max_space):
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "in.txt").write_bytes(content)
        argv = [command, "--in", source, *out, *k, *strategy, "--max-space", max_space]
        assert_documented_exit(*run_main(argv, workdir))


@FUZZ
@given(
    ns=int_arg((2, 4), (5, MAX_NS)),
    n=int_arg((1, 3), (4, 12)),
    k=K_ARGS,
    validate=optional("--validate", STRATEGY_ARGS),
    max_space=int_arg((2, MAX_SPACE)),
)
def test_oracle(ns, n, k, validate, max_space):
    argv = ["oracle", "--ns", ns, "--len", n, *k, *validate, "--max-space", max_space]
    with tempfile.TemporaryDirectory() as workdir:
        assert_documented_exit(*run_main(argv, workdir))


@FUZZ
@given(
    ns=int_arg((2, 64), (65, MAX_NS)),
    n=int_arg((1, 40)),
    pmax=mostly(
        st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
        st.sampled_from(["nan", "inf", "-0.5", "0", "1", "1.5", "x"]),
    ),
    trials=int_arg((1, MAX_TRIALS)),
    seed=optional("--seed", int_arg((0, 2**64 - 1), (2**64, 2**65))),
    k=st.one_of(st.just(None), int_arg((1, 3), (4, MAX_K))),
    strategy=st.one_of(st.just(None), STRATEGY_ARGS),
    out=optional("--out", PATHS),
    export_format=optional("--format", mostly(st.sampled_from(["csv", "json"]), st.just("xml"))),
    max_space=int_arg((2, MAX_SPACE)),
)
def test_run(ns, n, pmax, trials, seed, k, strategy, out, export_format, max_space):
    # --trials is always given: its default is 1000
    argv = ["run", "--ns", ns, "--len", n, "--pmax", pmax, "--trials", trials, *seed, "--workers", "1",
            *out, *export_format, "--max-space", max_space]
    argv += [] if k is None else ["--k", k]
    argv += [] if strategy is None else ["--strategy", strategy]
    with tempfile.TemporaryDirectory() as workdir:
        assert_documented_exit(*run_main(argv, workdir))
