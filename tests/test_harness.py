"""Tests for experiment configs, file artifacts, grids, and the CLI."""

import csv
import io
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    SUITE_NAMES,
    DepthSchedule,
    RunConfig,
    RunResult,
    compare_budgets,
    make_objective,
    run_algorithm,
    run_experiment,
    run_grid,
    run_soo,
)
from soobox import harness
from soobox.cli import main
from soobox.harness import read_trace_csv, trace_csv_text
from soobox.result import value_key

# =============================================================================
# Trace CSV text and the trace contract
# =============================================================================


def csv_writer_trace_text(result, f_star):
    """Reference: the trace CSV as csv.writer formats it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eval_index", "best_value", "ratio"])
    for index, value in enumerate(result.trace, start=1):
        ratio = "" if f_star in (None, 0.0) else format(value / f_star, ".17g")
        writer.writerow([index, format(value, ".17g"), ratio])
    return buf.getvalue()


TRACE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 123.456, -7.0, 1e308]


def _result_with_trace(values):
    return RunResult(best_point=np.zeros(1), trace=list(values))


class TestTraceCsv:
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, len(TRACE_VALUES) - 1), st.integers(1, 4)),
            max_size=20,
        ),
        f_star=st.sampled_from([None, 0.0, -0.0, 100.0, -3.5, 1e-300]),
        fresh_objects=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_csv_writer(self, picks, f_star, fresh_objects):
        # Runs of one value object (as TraceRecorder produces) and equal
        # values held in distinct objects must both format as before.
        values = []
        for pick, repeat in picks:
            value = TRACE_VALUES[pick]
            values += [float(str(value)) if fresh_objects else value] * repeat
        result = _result_with_trace(values)
        assert trace_csv_text(result, f_star) == csv_writer_trace_text(result, f_star)

    @pytest.mark.parametrize("f_star", [None, 0.0, 100.0, -250.0])
    def test_real_run_bytes_equal_csv_writer(self, f_star):
        result = run_algorithm(RunConfig(function="rastrigin", dim=3, budget=2000))
        assert trace_csv_text(result, f_star) == csv_writer_trace_text(result, f_star)

    def test_bad_header_rejected(self, tmp_path):
        for text in ("index,value\n1,2.0\n", ""):
            path = tmp_path / "bad.csv"
            path.write_text(text)
            with pytest.raises(ValueError):
                read_trace_csv(path)

    @pytest.mark.parametrize(
        "rows",
        [
            "1,2.0,\n2\n",  # short row
            "1,2.0,\n\n2,1.0,\n",  # blank row
            "1,2.0,\n3,1.0,\n",  # skipped index
            "2,2.0,\n",  # first row is not evaluation 1
            "1,2.0,\n1,1.0,\n",  # repeated index
        ],
        ids=["short", "blank", "skipped", "late-start", "repeated"],
    )
    def test_misnumbered_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("eval_index,best_value,ratio\n" + rows)
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_reads_values_in_evaluation_order(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("eval_index,best_value,ratio\n1,3.5,\n2,nan,\n3,-1e-300,2\n")
        parsed = read_trace_csv(path)
        assert parsed[::2] == [3.5, -1e-300] and math.isnan(parsed[1])


class TestTraceContract:
    def test_valid_trace_passes(self):
        _result_with_trace([3.0, 2.0, 2.0, 1.0]).check()
        _result_with_trace([math.nan, 5.0, 5.0]).check()

    @pytest.mark.parametrize(
        "trace, evals_used, best",
        [
            ([2.0, 3.0], 2, 3.0),  # best-so-far rises
            ([2.0, math.nan], 2, math.nan),  # rises to non-finite
        ],
    )
    def test_broken_trace_raises(self, trace, evals_used, best):
        # the counts are read from the trace, so only a rise can break it
        result = RunResult(best_point=np.zeros(1), trace=trace)
        assert result.evals_used == evals_used
        assert value_key(result.best_value) == value_key(best)
        with pytest.raises(ValueError):
            result.check()


# =============================================================================
# Config validation and budget resolution
# =============================================================================


class TestRunConfig:
    def test_cec_budget_scales_with_dimension(self):
        config = RunConfig(function="sphere", dim=2, cec_budget=True)
        assert config.resolved_budget == 20_000

    def test_cec_budget_example_dims(self):
        for dim, expected in [(10, 10**5), (30, 3 * 10**5)]:
            config = RunConfig(function="sphere", dim=dim, cec_budget=True)
            assert config.resolved_budget == expected

    def test_numpy_scalars_stored_as_python_numbers(self, tmp_path):
        # each field keeps its checker's plain value, so the JSON echo
        # serializes it; an integer exploration is echoed as a float
        config = RunConfig(
            "sphere", np.int64(2), budget=np.int64(10), seed=np.int64(1),
            shift_seed=np.uint64(3), refine_fraction=np.float32(0.05),
            s_children=np.int64(5), grid_resolution=np.int32(2),
            exploration=np.int64(2),
            depth_schedule=DepthSchedule("constant", np.int64(4)),
            output_dir=tmp_path,
        )
        kinds = {
            "dim": int, "budget": int, "seed": int, "shift_seed": int,
            "refine_fraction": float, "s_children": int,
            "grid_resolution": int, "exploration": float,
        }
        for name, kind in kinds.items():
            assert type(getattr(config, name)) is kind, name
        run_experiment(config)
        echo = json.loads((tmp_path / "sphere_2_soo_10.json").read_text())["config"]
        assert echo["dim"] == 2
        assert echo["refine_fraction"] == float(np.float32(0.05))
        assert echo["exploration"] == 2.0
        assert echo["depth_schedule"] == {"kind": "constant", "value": 4}

    def test_explicit_budget_passes_through(self):
        config = RunConfig(function="sphere", dim=2, budget=777)
        assert config.resolved_budget == 777

    def test_budget_modes_mutually_exclusive(self):
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2, budget=10, cec_budget=True)
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2, budget=0)
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2, budget=10, algorithm="annealing")
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2, budget=10, refine_fraction=1.0)
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=0, budget=10)
        with pytest.raises(ValueError):
            RunConfig(function="sphere", dim=2, budget=10, formats=("yaml",))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("s_children", 4),
            ("grid_resolution", 0),
            ("exploration", -1.0),
            ("exploration", math.nan),
            ("exploration", math.inf),
            # counts that are not integers
            ("dim", 2.5),
            ("budget", 10.5),
            ("s_children", 3.0),
            ("grid_resolution", 2.0),
            ("seed", 1.5),
            ("shift_seed", 0.5),
            # a negative random seed would only fail once the run started
            ("seed", -1),
            # a bool is not a count, nor an exploration constant
            ("dim", True),
            ("budget", True),
            ("grid_resolution", True),
            ("seed", True),
            ("shift_seed", True),
            ("exploration", True),
            # as would a name outside the suite
            ("function", "nope"),
            # a schedule that is not a DepthSchedule failed only once the
            # root was metered
            ("depth_schedule", "log32"),
            # a non-number is a ValueError too, not a TypeError
            ("exploration", "2"),
            ("refine_fraction", "0.5"),
            # a string is not a tuple of formats, nor None a bool
            ("formats", "csv"),
            ("cec_budget", None),
        ],
    )
    def test_invalid_field_raises_at_construction(self, name, value):
        kwargs = {"function": "sphere", "dim": 2, "budget": 10, name: value}
        with pytest.raises(ValueError, match=name):
            RunConfig(**kwargs)

    def test_stem_reflects_resolved_budget(self):
        config = RunConfig(
            function="ackley", dim=3, cec_budget=True, algorithm="soo-refine"
        )
        assert config.stem == "ackley_3_soo-refine_30000"


# =============================================================================
# Single experiments and artifacts
# =============================================================================


class TestRunExperiment:
    def test_hybrid_split_uses_whole_budget_envelope(self):
        config = RunConfig(
            function="sphere", dim=2, budget=2000, algorithm="soo-refine",
            refine_fraction=0.05,
        )
        result = run_algorithm(config)
        assert result.evals_used <= 2000
        result.check()

    def test_writes_csv_and_json(self, tmp_path):
        config = RunConfig(
            function="rastrigin", dim=2, budget=300, algorithm="soo",
            output_dir=tmp_path,
        )
        result = run_experiment(config)
        csv_path = tmp_path / "rastrigin_2_soo_300.csv"
        json_path = tmp_path / "rastrigin_2_soo_300.json"
        assert csv_path.exists() and json_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

        payload = json.loads(json_path.read_text())
        assert payload["best_value"] == result.best_value
        assert payload["evals_used"] == result.evals_used
        assert payload["f_star"] == 400.0
        assert payload["ratio"] == result.ratio
        assert payload["config"]["function"] == "rastrigin"
        assert payload["config"]["depth_schedule"] == {"kind": "log32", "value": None}
        assert payload["wall_seconds"] >= 0.0
        assert payload["best_point"] == list(result.best_point)

    def test_csv_round_trips_exactly(self, tmp_path):
        config = RunConfig(
            function="ackley", dim=2, budget=500, algorithm="random", seed=4,
            output_dir=tmp_path,
        )
        result = run_experiment(config)
        parsed = read_trace_csv(tmp_path / "ackley_2_random_500.csv")
        assert parsed == result.trace

    def test_ratio_column_floor(self, tmp_path):
        config = RunConfig(
            function="sphere", dim=2, budget=400, algorithm="soo",
            output_dir=tmp_path,
        )
        run_experiment(config)
        with open(tmp_path / "sphere_2_soo_400.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(float(row["ratio"]) >= 1.0 - 1e-12 for row in rows)

    def test_format_filtering(self, tmp_path):
        config = RunConfig(
            function="sphere", dim=2, budget=50, algorithm="soo",
            output_dir=tmp_path, formats=("json",),
        )
        run_experiment(config)
        assert not list(tmp_path.glob("*.csv"))
        assert list(tmp_path.glob("*.json"))

    def test_no_formats_makes_no_directory(self, tmp_path):
        config = RunConfig(
            function="sphere", dim=2, budget=50, output_dir=tmp_path / "out",
            formats=(),
        )
        run_experiment(config)
        assert not list(tmp_path.iterdir())

    def test_no_output_dir_writes_nothing(self, tmp_path):
        config = RunConfig(function="sphere", dim=2, budget=50, algorithm="soo")
        run_experiment(config)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_f_star_matches_the_objective(self, name):
        config = RunConfig(function=name, dim=3, budget=10, shift_seed=5)
        objective = make_objective(name, 3, 0, shift_seed=5)
        assert harness._suite_f_star(config) == objective.optimum_value


class TestAtomicWrite:
    def test_failed_replace_keeps_old_target_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(harness.os, "replace", fail)
        with pytest.raises(OSError, match="disk on fire"):
            harness._atomic_write(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_writers_make_missing_directories(self, tmp_path):
        out = tmp_path / "new" / "dir"
        harness._atomic_write(out / "direct" / "out.txt", "x\n")
        run_experiment(RunConfig("sphere", 2, budget=20, output_dir=out / "run"))
        run_grid(["sphere"], [2], ["soo"], budget=20, output_dir=out / "grid")
        compare_budgets("sphere", 2, [20], output_dir=out / "budgets")
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
            "budgets/budgets_sphere_2.json",
            "direct/out.txt",
            "grid/sphere_2_soo_20.csv",
            "grid/sphere_2_soo_20.json",
            "grid/summary.csv",
            "run/sphere_2_soo_20.csv",
            "run/sphere_2_soo_20.json",
        ]

    def test_new_file_gets_default_permissions(self, tmp_path):
        probe = tmp_path / "probe"
        probe.write_text("")
        harness._atomic_write(tmp_path / "out.json", "{}\n")
        mode = os.stat(tmp_path / "out.json").st_mode & 0o777
        assert mode == os.stat(probe).st_mode & 0o777

    def test_concurrent_writers_leave_one_complete_file(self, tmp_path):
        # More writers than cores, switching threads as often as possible:
        # a shared temp name would let one writer replace or truncate
        # another's half-written file.
        target = tmp_path / "out.csv"
        texts = [f"{k}\n" * 20_000 for k in range(8)]
        start = threading.Barrier(len(texts), timeout=30)
        errors = []

        def write(text):
            try:
                start.wait()
                for _ in range(5):
                    harness._atomic_write(target, text)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert target.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# =============================================================================
# Determinism properties
# =============================================================================


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        config = RunConfig(function="griewank", dim=2, budget=1500, algorithm="soo")
        r1 = run_algorithm(config)
        r2 = run_algorithm(config)
        assert r1.trace == r2.trace
        assert r1.split_ids == r2.split_ids
        assert np.array_equal(r1.best_point, r2.best_point)

    def test_trace_prefix_across_budgets(self):
        short = run_soo(make_objective("sphere", 2, budget=500), 500)
        long = run_soo(make_objective("sphere", 2, budget=2000), 2000)
        assert long.trace[: len(short.trace)] == short.trace

    def test_wall_clock_gate_10d(self):
        # Loose performance regression check, far under the 60 s limit on
        # current hardware; fails only on order-of-magnitude regressions.
        start = time.perf_counter()
        result = run_soo(make_objective("rastrigin", 10, budget=10**5), 10**5)
        elapsed = time.perf_counter() - start
        assert result.evals_used <= 10**5
        assert elapsed < 60.0


# =============================================================================
# Grids
# =============================================================================


class TestRunGrid:
    def test_cross_product_summary_shape(self, tmp_path):
        summary = run_grid(
            ["sphere", "rastrigin"], [2], ["soo", "random"],
            budget=300, output_dir=tmp_path,
        )
        assert summary.column_labels() == ["soo_2d", "random_2d"]
        assert len(summary.cells) == 4
        assert (tmp_path / "summary.csv").exists()
        assert len(list(tmp_path.glob("*_300.csv"))) == 4

    def test_summary_byte_identical_across_reruns(self, tmp_path):
        args = (["sphere", "ackley"], [2], ["soo", "random"])
        run_grid(*args, budget=250, output_dir=tmp_path / "a")
        run_grid(*args, budget=250, output_dir=tmp_path / "b")
        first = (tmp_path / "a" / "summary.csv").read_bytes()
        second = (tmp_path / "b" / "summary.csv").read_bytes()
        assert first == second

    def test_trace_files_byte_identical_across_reruns(self, tmp_path):
        run_grid(["sphere"], [2], ["soo"], budget=250, output_dir=tmp_path / "a")
        run_grid(["sphere"], [2], ["soo"], budget=250, output_dir=tmp_path / "b")
        a = (tmp_path / "a" / "sphere_2_soo_250.csv").read_bytes()
        b = (tmp_path / "b" / "sphere_2_soo_250.csv").read_bytes()
        assert a == b

    def test_failed_cell_recorded_as_error(self, tmp_path, capsys):
        summary = run_grid(
            ["rosenbrock"], [1, 2], ["soo"], budget=100, output_dir=tmp_path,
        )
        assert summary.cells[("rosenbrock", 1, "soo")] == "error"
        assert isinstance(summary.cells[("rosenbrock", 2, "soo")], float)
        text = (tmp_path / "summary.csv").read_text()
        assert "error" in text

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = run_grid(
            ["sphere", "griewank"], [2], ["soo"], budget=200,
            output_dir=tmp_path / "s", jobs=1,
        )
        parallel = run_grid(
            ["sphere", "griewank"], [2], ["soo"], budget=200,
            output_dir=tmp_path / "p", jobs=2,
        )
        assert serial.cells == parallel.cells
        assert (tmp_path / "s" / "summary.csv").read_bytes() == (
            tmp_path / "p" / "summary.csv"
        ).read_bytes()

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        # A fork pool starts all max_workers at its first submit, so a
        # 2-cell grid must ask for 2 whatever jobs says.  The fake pool
        # records the request and maps in this process.
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        summary = run_grid(
            ["sphere", "ackley"], [2], ["soo"], budget=50, output_dir=tmp_path,
            jobs=8,
        )
        assert requested == [2]
        assert len(summary.cells) == 2

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0])
    def test_bad_jobs_raise_before_any_cell_runs(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_grid(["sphere"], [2], ["soo"], budget=30, output_dir=tmp_path, jobs=jobs)
        assert not list(tmp_path.iterdir())

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            run_grid([], [2], ["soo"], budget=100)

    def test_invalid_field_raises_before_any_cell_runs(self, tmp_path):
        with pytest.raises(ValueError):
            run_grid(
                ["sphere", "ackley"], [2], ["soo"], budget=100, s_children=4,
                output_dir=tmp_path,
            )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "axes, repeated",
        [
            ((["sphere", "ackley", "sphere"], [2], ["soo"]), "'sphere'"),
            ((["sphere"], [2, 3, 2], ["soo"]), "dim 2"),
            ((["sphere"], [2], ["soo", "random", "soo"]), "'soo'"),
        ],
    )
    def test_repeated_axis_value_raises_before_any_cell_runs(
        self, tmp_path, axes, repeated
    ):
        with pytest.raises(ValueError, match=repeated):
            run_grid(*axes, budget=30, output_dir=tmp_path)
        assert not list(tmp_path.iterdir())


# =============================================================================
# Budget comparisons
# =============================================================================


class TestCompareBudgets:
    def test_ratios_non_increasing(self):
        report = compare_budgets("sphere", 2, [10**3, 10**4])
        assert report.ratios[1] <= report.ratios[0]
        assert len(report.improvements) == 1
        assert report.improvements[0] >= 0.0

    def test_single_budget_no_improvements(self):
        report = compare_budgets("ackley", 2, [500])
        assert len(report.ratios) == 1
        assert report.improvements == []

    def test_budgets_must_increase(self):
        with pytest.raises(ValueError):
            compare_budgets("sphere", 2, [100, 100])
        with pytest.raises(ValueError):
            compare_budgets("sphere", 2, [])

    def test_invalid_field_raises_before_any_run(self, tmp_path):
        with pytest.raises(ValueError):
            compare_budgets(
                "sphere", 2, [100, 200], grid_resolution=0, output_dir=tmp_path
            )
        assert not list(tmp_path.iterdir())

    def test_numpy_scalars_reported_as_python_numbers(self, tmp_path):
        report = compare_budgets(
            "sphere", np.int64(2), [np.int64(20), 40], output_dir=tmp_path
        )
        assert type(report.dim) is int
        assert [type(b) for b in report.budgets] == [int, int]
        payload = json.loads((tmp_path / "budgets_sphere_2.json").read_text())
        assert (payload["dim"], payload["budgets"]) == (2, [20, 40])

    def test_report_written_as_json(self, tmp_path):
        compare_budgets("rastrigin", 2, [200, 400], output_dir=tmp_path)
        payload = json.loads((tmp_path / "budgets_rastrigin_2.json").read_text())
        assert payload["budgets"] == [200, 400]
        assert len(payload["ratios"]) == 2


# =============================================================================
# CLI
# =============================================================================


# (argv, exit code) for every documented exit: 0 success, 1 usage error
# (any invalid flag value), 2 runtime error.
_RUN = ["--function", "sphere", "--dim", "2"]
_GRID = ["--function", "sphere,ackley", "--dim", "2"]
CLI_EXIT_CODES = [
    pytest.param([], 1, id="no-function"),
    pytest.param(["--function", "sphere"], 1, id="no-dim"),
    pytest.param(_RUN, 1, id="no-budget"),
    pytest.param(_RUN + ["--budget", "5", "--cec-budget"], 1, id="both-budgets"),
    pytest.param(
        ["--function", "nope", "--dim", "2", "--budget", "5"], 1,
        id="unknown-function",
    ),
    pytest.param(_RUN + ["--budget", "5", "--algo", "sgd"], 1, id="unknown-algo"),
    pytest.param(
        _RUN + ["--budget", "5", "--depth-schedule", "sometimes"], 1,
        id="unknown-schedule",
    ),
    pytest.param(_RUN + ["--budget", "0"], 1, id="budget-zero"),
    pytest.param(_RUN + ["--budget", "-5"], 1, id="budget-negative"),
    pytest.param(
        _RUN + ["--budget", "10", "--algo", "ucb-grid", "--grid-resolution", "0"],
        1, id="grid-resolution-zero",
    ),
    pytest.param(
        _GRID + ["--budget", "10", "--algo", "ucb-grid", "--grid-resolution", "0"],
        1, id="grid-resolution-zero-grid-form",
    ),
    pytest.param(_RUN + ["--budget", "10", "--s-children", "4"], 1, id="s-children-even"),
    pytest.param(
        _RUN + ["--budget", "10", "--refine-fraction", "1.5"], 1,
        id="refine-fraction-above-one",
    ),
    pytest.param(_GRID + ["--budget", "10", "--jobs", "0"], 1, id="jobs-zero"),
    pytest.param(
        ["--function", "sphere,sphere", "--dim", "2", "--budget", "10"], 1,
        id="repeated-function",
    ),
    pytest.param(
        ["--function", "all,ackley", "--dim", "2", "--budget", "10"], 1,
        id="repeated-function-via-all",
    ),
    pytest.param(_RUN[:3] + ["2,3,2", "--budget", "10"], 1, id="repeated-dim"),
    pytest.param(_RUN + ["--budget", "10", "--algo", "soo,soo"], 1, id="repeated-algo"),
    pytest.param(["--function", "sphere", "--dim", "0", "--budget", "10"], 1, id="dim-zero"),
    pytest.param(_RUN[:3] + ["2,x", "--budget", "10"], 1, id="dim-not-integer"),
    pytest.param(
        _RUN + ["--budget", "10", "--depth-schedule", "const:x"], 1,
        id="constant-depth-not-integer",
    ),
    pytest.param(
        _RUN + ["--budget", "10", "--algo", "random", "--seed", "-1"], 1, id="seed-negative"
    ),
    pytest.param(
        ["--function", "rosenbrock", "--dim", "1", "--budget", "50"], 2,
        id="rosenbrock-dim-one",
    ),
    pytest.param(_RUN + ["--budget", "20"], 0, id="valid-run"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["--suite-manifest", "--dim", "0"], 1, id="manifest-dim-zero"),
    # the manifest ignores --function
    pytest.param(
        ["--suite-manifest", "--function", "nope"], 0, id="manifest-ignores-function"
    ),
]


class TestCli:
    def test_single_run_exit_zero_and_artifacts(self, tmp_path, capsys):
        code = main([
            "--function", "sphere", "--dim", "2", "--budget", "200",
            "--algo", "soo", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sphere_2_soo_200.csv").exists()
        out = capsys.readouterr().out
        assert "sphere_2_soo_200" in out

    def test_grid_run_writes_summary(self, tmp_path, capsys):
        code = main([
            "--function", "sphere,ackley", "--dim", "2", "--budget", "150",
            "--algo", "soo,random", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert "function,soo_2d,random_2d" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_flag_writes_only_that_artifact(self, tmp_path, capsys, fmt):
        code = main(_RUN + ["--budget", "20", "--format", fmt, "--out", str(tmp_path)])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"sphere_2_soo_20.{fmt}"]
        capsys.readouterr()

    def test_suite_manifest_prints_json(self, capsys):
        code = main(["--suite-manifest", "--dim", "3"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert len(manifest) == 8
        assert manifest[0]["dim"] == 3

    @pytest.mark.parametrize("argv, code", CLI_EXIT_CODES)
    def test_exit_code(self, argv, code, capsys):
        assert main(argv) == code
        if code:
            assert "error" in capsys.readouterr().err

    def test_depth_schedule_spellings(self, capsys):
        for spelling in ("paper", "log32", "const:2", "unbounded"):
            code = main([
                "--function", "sphere", "--dim", "1", "--budget", "30",
                "--algo", "soo", "--depth-schedule", spelling,
            ])
            assert code == 0
        capsys.readouterr()

    def test_cec_budget_flag(self, tmp_path, capsys):
        code = main([
            "--function", "sphere", "--dim", "1", "--cec-budget",
            "--algo", "random", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sphere_1_random_10000.csv").exists()
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--depth-schedule" in capsys.readouterr().out
