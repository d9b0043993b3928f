"""Command-line interface: subcommands, exit codes, and deterministic
JSON output."""

import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

import tagsim.cli
from tagsim.cli import main
from tagsim.traces import analyze_trace, load_trace

TINY = "a 1 100\na 2 32\nf 1\na 3 0\nf 3\nf 2\n"
BUNDLED_TRACE = str(pathlib.Path(__file__).resolve().parent.parent / "traces" / "tiny.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# probe


def test_probe_emits_json_report_list(capsys):
    code, out, _ = run_cli(capsys, "probe", "--tg", "64", "--ts", "4",
                           "--trials", "400", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert [r["kind"] for r in payload] == ["heap-use-after-free", "non-linear-overflow"]
    for r in payload:
        assert r["trials"] == 400
        assert 0.85 < r["rate"] <= 1.0
        assert r["config"]["seed"] == 1


def test_probe_json_is_byte_identical_across_runs(capsys):
    args = ("probe", "--tg", "64", "--ts", "4", "--trials", "300", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_probe_seed_changes_output(capsys):
    _, a, _ = run_cli(capsys, "probe", "--trials", "200", "--seed", "1")
    _, b, _ = run_cli(capsys, "probe", "--trials", "200", "--seed", "2")
    assert a != b


def test_probe_kind_selection(capsys):
    code, out, _ = run_cli(capsys, "probe", "--kind", "use-after-return",
                           "--trials", "50", "--tg", "64", "--ts", "4")
    assert code == 0
    payload = json.loads(out)
    assert [r["kind"] for r in payload] == ["use-after-return"]
    assert payload[0]["rate"] == 1.0


def test_probe_plain_format(capsys):
    code, out, _ = run_cli(capsys, "probe", "--trials", "50", "--format", "plain")
    assert code == 0
    assert "rate" in out


def test_probe_rejects_zero_trials(capsys):
    code, out, err = run_cli(capsys, "probe", "--trials", "0")
    assert (code, out) == (2, "")
    assert err == "tagsim: error: trials must be >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ("probe", "--sampling-rate", "0.25", "--trials", "10"),
    ("probe", "--policy", "adjacent-distinct", "--sampling-rate", "1.0", "--trials", "10"),
    ("simulate", "heap-use-after-free", "--sampling-rate", "0.5"),
])
def test_sampling_rate_without_sampled_policy_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "tagsim: error: --sampling-rate requires --policy sampled\n"


@pytest.mark.parametrize("flags, rate", [
    ((), 1.0), (("--sampling-rate", "0.25"), 0.25),
    # the ASCII decimal and exponent forms
    (("--sampling-rate", ".25"), 0.25), (("--sampling-rate", "1."), 1.0),
    (("--sampling-rate", "25e-2"), 0.25), (("--sampling-rate", "2.5E-1"), 0.25),
    (("--sampling-rate", "0"), 0.0),
])
def test_sampled_policy_echoes_rate_used(capsys, flags, rate):
    code, out, _ = run_cli(capsys, "simulate", "heap-use-after-free", "--policy", "sampled",
                           *flags, "--format", "json")
    assert code in (0, 1)
    assert json.loads(out)["config"]["sampling_rate"] == rate


# ----------------------------------------------------------------------
# scalar flags

# each scalar flag, a command that reads it, and a value it takes
_SCALAR_FLAGS = [
    ("--ts", ("overhead", BUNDLED_TRACE), "4"),
    ("--tg", ("probe", "--trials", "1"), "16"),
    ("--seed", ("probe", "--trials", "1"), "12"),
    ("--quarantine", ("probe", "--trials", "1"), "64"),
    ("--trials", ("probe",), "10"),
    ("--size", ("simulate", "heap-use-after-free"), "16"),
    ("--offset", ("simulate", "linear-overflow"), "10"),
    ("--reuse-depth", ("simulate", "heap-use-after-free"), "2"),
    ("--sampling-rate", ("probe", "--trials", "1", "--policy", "sampled"), "0.25"),
]


def _other_forms(value):
    """Forms of ``value`` that int() and float() alone read as ``value``:
    a plus sign, an underscore, a space and Arabic-Indic digits."""
    return ["+" + value, "0_" + value, " " + value,
            value.translate({ord("0") + i: 0x660 + i for i in range(10)})]


@pytest.mark.parametrize("flag, command, text", [
    *[(flag, command, form) for flag, command, value in _SCALAR_FLAGS
      for form in _other_forms(value)],
    # float() also reads these, and "0_5" as 5.0
    ("--sampling-rate", _SCALAR_FLAGS[-1][1], "0_5"),
    ("--sampling-rate", _SCALAR_FLAGS[-1][1], "nan"),
    ("--sampling-rate", _SCALAR_FLAGS[-1][1], "Infinity"),
    # float() reads this as inf, past every finite float
    ("--sampling-rate", _SCALAR_FLAGS[-1][1], "1e400"),
    # more digits than int() converts: its own ValueError, named as the flag's type
    *[pytest.param(flag, command, "1" * 5000, id=f"{flag}-5000-digits")
      for flag, command, _ in _SCALAR_FLAGS[:-1]],
])
def test_scalar_flags_take_only_ascii_numbers(capsys, flag, command, text):
    kind = "float" if flag == "--sampling-rate" else "int"
    code, out, err = run_cli(capsys, *command, flag, text)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid {kind} value: {text!r}\n")


@pytest.mark.parametrize("flag, command, value", _SCALAR_FLAGS)
def test_scalar_flags_take_their_ascii_value(capsys, flag, command, value):
    code, _, err = run_cli(capsys, *command, flag, value)
    assert code in (0, 1) and err == ""


def test_simulate_takes_a_negative_seed(capsys):
    code, out, _ = run_cli(capsys, "simulate", "heap-use-after-free", "--seed", "-3",
                           "--format", "json")
    assert code in (0, 1)
    assert json.loads(out)["seed"] == -3


# ----------------------------------------------------------------------
# simulate


def test_simulate_intra_granule_exit_codes(capsys):
    # undetected without the precision extension, detected with it
    code, out, _ = run_cli(capsys, "simulate", "intra-granule", "--tg", "16", "--ts", "8")
    assert code == 0
    assert "detected=0" in out
    code, out, _ = run_cli(capsys, "simulate", "intra-granule", "--tg", "16", "--ts", "8",
                           "--precision-ext")
    assert code == 1
    assert "detected=1" in out
    assert "FAULT kind=tag-mismatch" in out


def test_simulate_use_after_free_detects(capsys):
    code, out, _ = run_cli(capsys, "simulate", "heap-use-after-free",
                           "--tg", "64", "--ts", "4", "--seed", "3")
    assert code == 1
    assert "state=freed" in out


def test_simulate_json_payload(capsys):
    code, out, _ = run_cli(capsys, "simulate", "heap-use-after-free", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "heap-use-after-free"
    assert payload["detected"] is True
    assert payload["report"]["kind"] == "tag-mismatch"
    assert payload["config"]["tg"] == 16


def test_simulate_geometry_flags(capsys):
    code, _, _ = run_cli(capsys, "simulate", "intra-granule", "--size", "10",
                         "--offset", "12", "--precision-ext")
    assert code == 1


def test_simulate_unknown_scenario(capsys):
    code, _, _ = run_cli(capsys, "simulate", "no-such-bug")
    assert code == 2


@pytest.mark.parametrize("seed", range(4))
def test_simulate_linear_overflow_of_size_zero_leaves_the_chunk(capsys, seed):
    # malloc serves size 0 as one byte, so the overflow starts at the
    # next granule, which adjacent-distinct tags always catch
    for offset in range(16):
        code, out, _ = run_cli(capsys, "simulate", "linear-overflow", "--size", "0",
                               "--offset", str(offset), "--seed", str(seed),
                               "--policy", "adjacent-distinct")
        assert (code, out.splitlines()[-1]) == (1, "detected=1"), offset


@pytest.mark.parametrize("seed", range(4))
def test_simulate_non_linear_overflow_of_size_zero_probes_the_served_byte(capsys, seed):
    code, out, err = run_cli(capsys, "simulate", "non-linear-overflow", "--size", "0",
                             "--seed", str(seed))
    assert code in (0, 1) and err == ""
    assert out.splitlines()[-1] == f"detected={code}"


@pytest.mark.parametrize("flags, observed, detected", [
    ((), "aa", 0), (("--zero-on-tag",), "00", 1)])
def test_simulate_uninitialized_read_of_size_zero_reads_the_served_byte(capsys, flags,
                                                                        observed, detected):
    code, out, err = run_cli(capsys, "simulate", "uninitialized-read", "--size", "0", *flags)
    assert (code, err) == (detected, "")
    assert out.splitlines()[1:] == [f"observed={observed}", f"detected={detected}"]


@pytest.mark.parametrize("seed", range(4))
def test_simulate_intra_granule_of_size_zero_probes_past_the_served_byte(capsys, seed):
    for flags, detected in (((), 0), (("--precision-ext",), 1)):
        code, out, err = run_cli(capsys, "simulate", "intra-granule", "--size", "0",
                                 "--seed", str(seed), *flags)
        assert (code, err) == (detected, "")
        assert out.splitlines()[-1] == f"detected={detected}"
    for offset in (0, 16):
        code, out, err = run_cli(capsys, "simulate", "intra-granule", "--size", "0",
                                 "--offset", str(offset), "--seed", str(seed))
        assert code == 2 and out == ""
        assert "intra-granule offset must lie in [1, 16)" in err


@pytest.mark.parametrize("size, offset", [(0, 1), (16, 16), (16, 99), (5, 5), (5, -1)])
def test_simulate_non_linear_overflow_rejects_offsets_off_the_victim(capsys, size, offset):
    code, out, err = run_cli(capsys, "simulate", "non-linear-overflow", "--size", str(size),
                             f"--offset={offset}")
    assert code == 2 and out == ""
    assert "non-linear-overflow offset must lie in [0, " in err


@pytest.mark.parametrize("kind, flags, message", [
    *[(kind, ("--offset", "3"), f"offset does not apply to scenario {kind}")
      for kind in ("heap-use-after-free", "use-after-return", "use-after-scope",
                   "uninitialized-read")],
    *[(kind, ("--reuse-depth", depth), f"reuse_depth does not apply to scenario {kind}")
      for kind in ("linear-overflow", "linear-underflow", "non-linear-overflow",
                   "intra-granule-overflow", "use-after-return", "use-after-scope",
                   "uninitialized-read")
      for depth in ("0", "2")],
    ("linear-overflow", ("--offset", "16"),
     "linear-overflow offset must stay in the neighbor's first granule"),
    ("linear-underflow", ("--offset", "16"),
     "linear-underflow offset must stay in the neighbor's last granule"),
    ("intra-granule", ("--reuse-depth", "1"),
     "reuse_depth does not apply to scenario intra-granule-overflow"),
    ("heap-use-after-free", ("--reuse-depth", "-1"), "reuse_depth must be >= 0, got -1"),
    # Scenario checks --offset before --reuse-depth
    ("use-after-return", ("--offset", "3", "--reuse-depth", "0"),
     "offset does not apply to scenario use-after-return"),
])
def test_simulate_rejects_flags_its_scenario_does_not_read(capsys, kind, flags, message):
    code, out, err = run_cli(capsys, "simulate", kind, *flags)
    assert (code, out) == (2, "")
    assert err == f"tagsim: error: {message}\n"


# ----------------------------------------------------------------------
# overhead


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(TINY)
    return str(path)


def test_overhead_matches_library_answer(capsys, trace_file):
    code, out, _ = run_cli(capsys, "overhead", trace_file, "--alignments", "8,16,32,64")
    assert code == 0
    payload = json.loads(out)
    oracle = analyze_trace(load_trace(trace_file), [8, 16, 32, 64], ts=8).to_json_dict()
    assert payload == oracle


def test_overhead_plain_table(capsys, trace_file):
    code, out, _ = run_cli(capsys, "overhead", trace_file, "--alignments", "16,32",
                           "--format", "plain")
    assert code == 0
    assert "alignment=16" in out
    assert "alignment=32" in out


def test_overhead_bundled_trace_is_monotone(capsys):
    code, out, _ = run_cli(capsys, "overhead", BUNDLED_TRACE,
                           "--alignments", "16,32,64")
    assert code == 0
    rows = json.loads(out)["rows"]
    pcts = [r["overhead_pct"] for r in rows]
    assert pcts == sorted(pcts)


def test_overhead_bad_alignment_list(capsys, trace_file):
    code, _, err = run_cli(capsys, "overhead", trace_file, "--alignments", "8,po")
    assert code == 2
    assert "alignments" in err


@pytest.mark.parametrize("value,message", [
    ("8,,16", "bad --alignments value '8,,16'"),
    ("8,16,", "bad --alignments value '8,16,'"),
    ("", "bad --alignments value ''"),
    ("8,\u0661\u0666", "bad --alignments value '8,\u0661\u0666'"),
    ("16,32_0", "bad --alignments value '16,32_0'"),
    ("+16", "bad --alignments value '+16'"),
    ("-8", "bad --alignments value '-8'"),
    ("8,-0", "bad --alignments value '8,-0'"),
    ("8, \u0661\u0666", "bad --alignments value '8, \u0661\u0666'"),
    pytest.param("8,1" + "0" * 5000, f"bad --alignments value '8,1{'0' * 5000}'",
                 id="more-digits-than-int-takes"),
    ("16,16", "--alignments lists 16 twice"),
    ("8,16,016", "--alignments lists 16 twice"),
])
def test_overhead_alignment_list_is_strict(capsys, trace_file, value, message):
    code, out, err = run_cli(capsys, "overhead", trace_file, "--alignments", value)
    assert (code, out) == (2, "")
    assert err == f"tagsim: error: {message}\n"


def test_overhead_missing_file(capsys):
    code, _, err = run_cli(capsys, "overhead", "no/such/trace.txt")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flags", [
    ("--tg", "16"), ("--seed", "1"), ("--policy", "random"), ("--precision-ext",),
    ("--zero-on-tag",), ("--store-mode", "precise"), ("--quarantine", "0"),
    ("--sampling-rate", "0.5"),
])
def test_overhead_rejects_flags_it_does_not_read(capsys, trace_file, flags):
    code, out, err = run_cli(capsys, "overhead", trace_file, "--ts", "4", "--format", "plain",
                             *flags)
    assert code == 2
    assert out == ""
    assert f"tagsim: error: unrecognized arguments: {' '.join(flags)}" in err


def test_overhead_names_bad_trace_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a 1 8\nf 2\n")
    code, _, err = run_cli(capsys, "overhead", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("data,bad_line", [
    (b"a 1 8\na 2 \xc3\xa9\n", 2),
    (b"a 1 8\r\n# caf\xe9\nf 1\n", 2),
    (b"\xff", 1),
])
def test_overhead_non_ascii_byte_is_a_trace_error(capsys, tmp_path, data, bad_line):
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "overhead", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"tagsim: error: line {bad_line}: non-ASCII trace line ")


def test_overhead_calls_load_and_analyze_once_through_cli_names(capsys, monkeypatch, trace_file):
    # bench/run.py's traced run patches these two names in tagsim.cli
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tagsim.cli, "load_trace", counting("load", tagsim.cli.load_trace))
    monkeypatch.setattr(tagsim.cli, "analyze_trace", counting("analyze", tagsim.cli.analyze_trace))
    code, out, _ = run_cli(capsys, "overhead", trace_file)
    assert code == 0
    assert calls == ["load", "analyze"]
    assert json.loads(out) == analyze_trace(load_trace(trace_file), [8, 16, 32, 64],
                                            ts=8).to_json_dict()


def test_overhead_error_precedence(capsys, tmp_path):
    # the trace is read lazily: a bad --alignments is reported before a
    # malformed line, and a missing file before either
    bad = tmp_path / "bad.txt"
    bad.write_text("a 1 8\nx 2 3\n")
    code, _, err = run_cli(capsys, "overhead", str(bad), "--alignments", "8,0")
    assert code == 2
    assert err == "tagsim: error: alignment must be >= 1, got 0\n"
    code, _, err = run_cli(capsys, "overhead", str(bad))
    assert code == 2
    assert err == "tagsim: error: line 2: unrecognized trace line 'x 2 3'\n"
    code, _, err = run_cli(capsys, "overhead", str(tmp_path / "missing.txt"), "--alignments", "8,0")
    assert code == 2
    assert "missing.txt" in err


def _write_churn_trace(path, n_events, live_target, seed=0):
    """Ramp up to ``live_target`` live allocations, then alternate a free
    of a random live one with a new allocation."""
    rng = random.Random(seed)
    live, lines = [], []
    for aid in range(n_events):
        if len(live) < live_target:
            live.append(aid)
            lines.append(f"a {aid} {rng.randrange(512)}\n")
        else:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            lines.append(f"f {live.pop()}\n")
    path.write_text("".join(lines))


def _traced_peak(capsys, path):
    tracemalloc.start()
    try:
        code = main(["overhead", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    return peak


def test_overhead_memory_is_bounded_by_live_allocations(capsys, tmp_path):
    short, long = tmp_path / "short.txt", tmp_path / "long.txt"
    _write_churn_trace(short, 50_000, live_target=1000)
    _write_churn_trace(long, 200_000, live_target=1000)
    short_peak = _traced_peak(capsys, short)
    long_peak = _traced_peak(capsys, long)
    assert long_peak < 1.5 * short_peak, (short_peak, long_peak)


def test_overhead_reads_a_trace_of_other_line_breaks_in_blocks(capsys, tmp_path, monkeypatch):
    # a form feed ends a line as a newline does, so a trace of form-feed
    # lines is read in the same blocks as its newline twin, not as one
    # block that grows with the trace
    newline, form_feed = tmp_path / "newline.txt", tmp_path / "form_feed.txt"
    _write_churn_trace(newline, 50_000, live_target=1000)
    form_feed.write_text(newline.read_text().replace("\n", "\x0c"))
    blocks = []
    original = tagsim.traces._blocks

    def counting(*args, **kwargs):
        for block in original(*args, **kwargs):
            blocks.append(len(block))
            yield block

    def read(path):
        blocks.clear()
        peak = _traced_peak(capsys, path)
        return len(blocks), peak

    monkeypatch.setattr(tagsim.traces, "_blocks", counting)
    nl_blocks, nl_peak = read(newline)
    ff_blocks, ff_peak = read(form_feed)
    assert run_cli(capsys, "overhead", str(form_feed)) == run_cli(capsys, "overhead", str(newline))
    assert ff_blocks == nl_blocks > 2
    assert ff_peak < 1.5 * nl_peak, (nl_peak, ff_peak)


# ----------------------------------------------------------------------
# parser plumbing


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "probe", "--bogus")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "probe" in out


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "tagsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tagsim" in proc.stdout


@pytest.mark.parametrize("argv", [["simulate", "heap-use-after-free"],
                                  ["probe", "--trials", "20"],
                                  ["overhead", BUNDLED_TRACE]], ids=lambda a: a[0])
def test_closed_stdout_exits_141_quietly(argv):
    """A reader that is gone before the first write, as after `| head -1`:
    exit 128 + SIGPIPE with nothing on stderr, not an input error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tagsim.cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "tagsim.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
