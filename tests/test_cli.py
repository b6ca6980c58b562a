"""Config parsing, experiment driver, and command-line entry points."""

import csv
import dataclasses
import os
import re
import typing

import numpy as np
import pytest

from rarebound import cli
from rarebound.bench import ToyProblem, get_benchmark
from rarebound.cli import (
    _CHOICES,
    METHODS,
    ROW_FIELDS,
    SUMMARY_FIELDS,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    parse_config_text,
    run_experiment,
    run_lambda_table,
)
from rarebound.core import BlackBoxFunction, RandomStream
from rarebound.monotone import sequential_bounder
from rarebound.surrogate import lambda_crossing

MINIMAL = """
[experiment]
method = monotone-auto
benchmark = linear:d=2:y=0.5
budget = 15
replications = 2
workers = 1
"""


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def option_fields():
    """(section, name, annotated type, default) of every config key."""
    sections = [("experiment", ExperimentConfig)] + [
        (name, cls) for name, cls in
        typing.get_type_hints(ExperimentConfig).items()
        if dataclasses.is_dataclass(cls)]
    for section, cls in sections:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if not dataclasses.is_dataclass(hints[f.name]):
                yield section, f.name, hints[f.name], f.default


def readme_keys():
    """Config keys the README documents, by section: the rows of the
    top-level table, and the backquoted names in each bullet of the
    "Method sections" list."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("### Config format", 1)[1]
    table = table.split("Method sections", 1)[0]
    out = {"experiment": set(re.findall(r"^\| `(\w+)` \|", table, re.M))}
    block = text.split("Method sections and their defaults:\n\n", 1)[1]
    for bullet in re.split(r"^- ", block.split("\n\n", 1)[0], flags=re.M)[1:]:
        section, body = re.match(r"`\[(\w+)\]`(.*)", bullet, re.S).groups()
        out[section] = set(re.findall(r"`([a-z_][a-z0-9_]*)`", body))
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall(rows):
    """Drop the wall-time column, the only run-to-run varying field."""
    return [r[:-1] for r in rows]


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.method == "monotone-auto"
        assert cfg.benchmark == "linear:d=2:y=0.5"
        assert cfg.budget == 15
        assert cfg.replications == 2
        assert cfg.seed == 20260823
        assert cfg.shift.theta_source == "train"
        assert cfg.fsd.family == "polynomial"

    def test_sections_and_comments(self):
        text = """
        # full-line comment
        [experiment]
        method = shift          # trailing comment
        benchmark = example1:d=2:p=1e-1
        replications = 1

        [shift]
        theta_source = test
        alpha = 0.05

        [fsd]
        restarts = 0
        family = network
        train_size = 30

        [dyadic]
        lipschitz = 2.5
        """
        cfg = parse_config_text(text)
        assert cfg.shift.theta_source == "test"
        assert cfg.shift.alpha == 0.05
        assert (cfg.fsd.restarts, cfg.fsd.family, cfg.fsd.train_size) == (
            0, "network", 30)
        assert cfg.dyadic.lipschitz == 2.5

    @pytest.mark.parametrize("key", ["taus = 0.1 0.03", "penalty = 10"])
    def test_unknown_fsd_keys_name_line(self, key):
        text = MINIMAL + f"\n[fsd]\n{key}\n"
        with pytest.raises(ConfigError, match=r":10: unknown key"):
            parse_config_text(text)

    @pytest.mark.parametrize("section, key", [
        ("dyadic", "max_depth = 12"), ("dyadic", "eps_target = 1e-5"),
        ("shift", "train_size = 100"), ("shift", "test_size = 100"),
        ("shift", "c_constant = 6"), ("shift", "hidden = 8 8"),
        ("shift", "epochs = 16000"), ("shift", "lr = 0.02"),
        ("shift", "overpredict_weight = 3.0"),
        ("shift", "mc_samples = 20000"), ("shift", "q2_gate = 0.9"),
        ("shift", "max_refits = 3"), ("fsd", "degree = 2"),
        ("fsd", "hidden = 4 4"), ("fsd", "direction = conservative-low"),
        ("fsd", "epochs = 600"), ("fsd", "lr = 0.02"),
        ("fsd", "mc_samples = 20000")])
    def test_fixed_protocol_keys_are_rejected(self, section, key):
        # the surrogate routes' sizes and schedules and the dyadic depth
        # are fixed by the runners, even when set to their fixed values
        name = key.split(" ")[0]
        text = MINIMAL + f"\n[{section}]\n{key}\n"
        with pytest.raises(ConfigError, match=(
                rf"<config>:10: unknown key '{name}' in section \[{section}\]")):
            parse_config_text(text)

    def test_unknown_section_names_line(self):
        text = "[experiment]\nmethod = dyadic\n[paranormal]\n"
        with pytest.raises(ConfigError, match=r"<config>:3: unknown section"):
            parse_config_text(text)

    def test_unknown_key_names_line_and_section(self):
        text = MINIMAL + "\n[dyadic]\npool = 10\n"
        with pytest.raises(ConfigError,
                           match=r":10: unknown key 'pool' in section \[dyadic"):
            parse_config_text(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("[experiment]\nmethod dyadic\n")

    def test_unconvertible_value(self):
        with pytest.raises(ConfigError, match="bad value for 'budget'"):
            parse_config_text(MINIMAL + "budget = soon\n")

    def test_choice_rejected(self):
        with pytest.raises(ConfigError, match="bad value for 'method'"):
            parse_config_text("[experiment]\nmethod = magic\n")

    def test_missing_method_and_benchmark(self):
        with pytest.raises(ConfigError, match="missing required key 'method'"):
            parse_config_text("[experiment]\nbudget = 5\n")
        with pytest.raises(ConfigError, match="missing required key 'benchmark'"):
            parse_config_text("[experiment]\nmethod = dyadic\n")

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            parse_config_text(
                "[experiment]\nmethod = dyadic\nbenchmark = cauchy:d=2\n")

    def test_budget_validation(self):
        with pytest.raises(ConfigError, match="budget must be >= 1"):
            parse_config_text(MINIMAL + "budget = 0\n")

    def test_dyadic_needs_lipschitz(self):
        base = ("[experiment]\nmethod = dyadic\n"
                "benchmark = example1:d=2:p=1e-1\n")
        with pytest.raises(ConfigError, match="no known Lipschitz"):
            parse_config_text(base)
        cfg = parse_config_text(base + "[dyadic]\nlipschitz = 40\n")
        assert cfg.dyadic.lipschitz == 40.0

    @pytest.mark.parametrize("method", ["monotone-mcmc", "monotone-auto"])
    def test_monotone_needs_exact_volumes(self, method):
        # the bounds are exact volumes, computed up to d = 6 only
        base = f"[experiment]\nmethod = {method}\n"
        with pytest.raises(ConfigError, match="only up to d = 6"):
            parse_config_text(base + "benchmark = example1:d=7:p=5e-3\n")
        cfg = parse_config_text(base + "benchmark = example1:d=6:p=5e-3\n")
        assert cfg.method == method

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.cfg"))


class TestOptionFields:
    """The option dataclasses are the only declaration of the config keys."""

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_shipped_configs_load(self, name):
        assert load_config(os.path.join(CONFIG_DIR, name)).method in METHODS

    def test_defaults_have_their_annotated_types(self):
        # values parse as the type of the default, so a float key with an
        # int default would reject "0.5"
        for _, name, hint, default in option_fields():
            assert hint in (int, float, str), name
            assert type(default) is hint, name

    def test_settable_values(self):
        assert sorted((section, name) for section, name, _, _ in
                      option_fields()) == [
            ("dyadic", "lipschitz"),
            ("experiment", "benchmark"), ("experiment", "budget"),
            ("experiment", "method"), ("experiment", "output_dir"),
            ("experiment", "replications"), ("experiment", "seed"),
            ("experiment", "workers"),
            ("fsd", "family"), ("fsd", "restarts"), ("fsd", "train_size"),
            ("shift", "alpha"), ("shift", "theta_source")]

    def test_choice_keys_name_one_field_with_a_valid_default(self):
        keys = list(option_fields())
        for key, choices in _CHOICES.items():
            matches = [default for _, name, _, default in keys if name == key]
            assert len(matches) == 1, key
            # method is required: its default "" means unset
            assert matches[0] in choices or (key, matches[0]) == ("method", "")

    def test_readme_names_every_key(self):
        documented = {}
        for section, name, _, _ in option_fields():
            documented.setdefault(section, set()).add(name)
        assert readme_keys() == documented

    @pytest.mark.parametrize("section, key, error", [
        pytest.param("monotone", "sampler = auto",
                     r":9: unknown section \[monotone\]", id="monotone"),
        pytest.param("mcmc", "chains = 32", r":9: unknown section \[mcmc\]",
                     id="mcmc")])
    def test_monotone_tuning_keys_are_rejected(self, section, key, error):
        # the sequential bounder fixes its candidate rule by dimension and
        # the walk's tuning, and the method names the sampler
        text = MINIMAL + f"\n[{section}]\n{key}\n"
        with pytest.raises(ConfigError, match=error):
            parse_config_text(text)


class TestRunExperiment:
    def run_minimal(self, tmp_path, extra="", name="out"):
        cfg = parse_config_text(MINIMAL + extra)
        outdir = run_experiment(cfg, output_dir=str(tmp_path / name))
        return outdir, read_csv(os.path.join(outdir, "rows.csv")), \
            read_csv(os.path.join(outdir, "summary.csv"))

    @pytest.mark.parametrize("method, sampler", [
        ("monotone-mcmc", "mcmc"), ("monotone-auto", "auto")])
    def test_method_picks_the_sampler(self, tmp_path, monkeypatch, method,
                                      sampler):
        seen = []

        def recording(*args, sampler):
            seen.append(sampler)
            return sequential_bounder(*args, sampler=sampler)

        monkeypatch.setattr(cli, "sequential_bounder", recording)
        # at d=3 every query comes from the sampler's pool
        text = MINIMAL.replace("monotone-auto", method).replace(
            "linear:d=2:y=0.5", "linear:d=3:y=0.5")
        cfg = parse_config_text(text)
        outdir = run_experiment(cfg, output_dir=str(tmp_path / "picked"))
        assert seen == [sampler, sampler]
        rows = [dict(zip(ROW_FIELDS, r)) for r in
                read_csv(os.path.join(outdir, "rows.csv"))[1:]]
        problem = get_benchmark("linear:d=3:y=0.5")
        for r, row in enumerate(rows):
            b = sequential_bounder(problem.function, cfg.budget,
                                   RandomStream(cfg.seed, r),
                                   sampler=sampler).bounds
            assert row["method"] == method
            assert (int(row["queries"]), float(row["p_lower"]),
                    float(row["p_upper"])) == (b.queries_used, b.lower,
                                               b.upper)

    def test_auto_sampler_matches_direct_call(self, tmp_path):
        # at d=3, p=5e-4, seed 202 rejection's acceptance falls below 5e-3
        # in replication 3, and "auto" stays with rejection throughout
        budget, seed, reps = 200, 202, 4
        text = (f"method = monotone-auto\nbenchmark = example1:d=3:p=5e-4\n"
                f"budget = {budget}\nreplications = {reps}\nseed = {seed}\n"
                "workers = 1\n")
        outdir = run_experiment(parse_config_text(text),
                                output_dir=str(tmp_path / "auto"))
        rows = [dict(zip(ROW_FIELDS, r)) for r in
                read_csv(os.path.join(outdir, "rows.csv"))[1:]]
        problem = get_benchmark("example1:d=3:p=5e-4")
        names = []
        for r, row in enumerate(rows):
            run = sequential_bounder(problem.function, budget,
                                     RandomStream(seed, r), sampler="auto")
            names.append(run.sampler_name)
            assert row["method"] == "monotone-auto"
            assert float(row["p_lower"]) == run.bounds.lower
            assert float(row["p_upper"]) == run.bounds.upper
        assert names == ["auto"] * reps

    def test_rows_schema_and_formulas(self, tmp_path):
        _, rows, summary = self.run_minimal(tmp_path)
        assert rows[0] == list(ROW_FIELDS)
        assert summary[0] == list(SUMMARY_FIELDS)
        assert len(rows) == 3            # header + 2 replications
        for rec in rows[1:]:
            row = dict(zip(ROW_FIELDS, rec))
            p_exact = float(row["p_exact"])
            lo, hi = float(row["p_lower"]), float(row["p_upper"])
            assert row["p_hat"] == ""    # bounding method reports no estimate
            assert float(row["rel_precision"]) == pytest.approx(
                (hi - lo) / p_exact, rel=1e-12)
            assert row["miss_flag"] == ("0" if lo <= p_exact <= hi else "1")
            assert int(row["queries"]) == 15

    def test_summary_aggregates_rows(self, tmp_path):
        _, rows, summary = self.run_minimal(tmp_path)
        recs = [dict(zip(ROW_FIELDS, r)) for r in rows[1:]]
        summ = dict(zip(SUMMARY_FIELDS, summary[1]))
        assert int(summ["rows"]) == len(recs)
        assert float(summ["mean_queries"]) == pytest.approx(
            np.mean([float(r["queries"]) for r in recs]), abs=1e-12)
        rels = [float(r["rel_precision"]) for r in recs]
        assert float(summ["mean_rel_precision"]) == pytest.approx(
            np.mean(rels), abs=1e-12)
        assert float(summ["median_rel_precision"]) == pytest.approx(
            np.median(rels), abs=1e-12)
        assert float(summ["miss_rate"]) == pytest.approx(
            np.mean([float(r["miss_flag"]) for r in recs]), abs=1e-12)

    def test_deterministic_modulo_wall_time(self, tmp_path):
        _, rows_a, _ = self.run_minimal(tmp_path, name="a")
        _, rows_b, _ = self.run_minimal(tmp_path, name="b")
        assert strip_wall(rows_a) == strip_wall(rows_b)

    def test_worker_pool_matches_serial(self, tmp_path):
        _, serial, _ = self.run_minimal(tmp_path, name="serial")
        _, pooled, _ = self.run_minimal(tmp_path, extra="workers = 2\n",
                                        name="pooled")
        assert strip_wall(serial) == strip_wall(pooled)

    def test_zero_replications_writes_headers(self, tmp_path):
        _, rows, summary = self.run_minimal(tmp_path,
                                            extra="replications = 0\n")
        assert rows == [list(ROW_FIELDS)]
        assert summary == [list(SUMMARY_FIELDS)]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("RAREBOUND_OUTPUT_DIR", str(target))
        cfg = parse_config_text(MINIMAL)
        outdir = run_experiment(cfg)
        assert outdir == str(target)
        assert (target / "rows.csv").exists()

    def test_dyadic_rows_have_bounds_only(self, tmp_path):
        text = ("[experiment]\nmethod = dyadic\n"
                "benchmark = lipschitz1d:p=2.1e-3\n"
                "budget = 32\nreplications = 1\nworkers = 1\n")
        cfg = parse_config_text(text)
        outdir = run_experiment(cfg, output_dir=str(tmp_path / "dy"))
        row = dict(zip(ROW_FIELDS, read_csv(
            os.path.join(outdir, "rows.csv"))[1]))
        p = 2.1e-3
        assert row["p_hat"] == ""
        assert float(row["p_lower"]) <= p <= float(row["p_upper"]) <= 2 * p
        assert row["miss_flag"] == "0"

    def test_shift_rows_have_estimate_only(self, tmp_path):
        text = ("[experiment]\nmethod = shift\n"
                "benchmark = example1:d=2:p=1e-1\n"
                "replications = 1\nworkers = 1\n")
        cfg = parse_config_text(text)
        outdir = run_experiment(cfg, output_dir=str(tmp_path / "sh"))
        row = dict(zip(ROW_FIELDS, read_csv(
            os.path.join(outdir, "rows.csv"))[1]))
        assert row["p_lower"] == "" and row["p_upper"] == ""
        assert 0.0 <= float(row["p_hat"]) <= 1.0
        assert row["rel_precision"] == ""
        # 50 * d training and 50 * d test points
        assert int(row["queries"]) == 200

    def test_fsd_network_replication_draws_each_stream_once(self,
                                                            monkeypatch):
        # a network fsd replication draws its training inputs, the
        # network's initial weights, the restart jitter and the Monte
        # Carlo points; each must come from a stream of its own, or the
        # jitter repeats the first layer's initial weights, scaled
        drawn = []
        generator = RandomStream.generator
        monkeypatch.setattr(RandomStream, "generator", lambda self: (
            drawn.append(self.stream_id) or generator(self)))
        text = ("[experiment]\nmethod = fsd\n"
                "benchmark = example1:d=2:p=1e-1\nreplications = 1\n"
                "workers = 1\n\n[fsd]\nfamily = network\nrestarts = 1\n"
                "train_size = 30\n")
        cli._replication_row(parse_config_text(text), 3)
        assert len(drawn) == 4
        assert len(set(drawn)) == len(drawn), drawn


class TestLambdaTable:
    def test_files_and_contract(self, tmp_path):
        outdir = run_lambda_table([0.1], n_min=1, n_max=10_000, points=40,
                                  output_dir=str(tmp_path / "lam"))
        table = read_csv(os.path.join(outdir, "lambda_table.csv"))
        assert table[0] == ["p", "n", "lambda"]
        values = [(int(r[1]), float(r[2])) for r in table[1:]]
        assert all(0.0 < v <= 1.0 for _, v in values)
        assert values[0][1] == pytest.approx(np.exp(-0.1 / 6.0))
        cross = read_csv(os.path.join(outdir, "lambda_crossings.csv"))
        assert cross[0] == ["p", "n_crossing"]
        n_star = float(cross[1][1])
        assert n_star * np.exp(-n_star * 0.1 / 6.0) == pytest.approx(
            0.1, rel=1e-6)

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            run_lambda_table([], output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_lambda_table([0.5], n_min=10, n_max=5,
                             output_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_lambda_table([1.5], output_dir=str(tmp_path))


class TestMain:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, MINIMAL)
        out = str(tmp_path / "res")
        assert main(["run", cfg, "--output-dir", out]) == 0
        assert "rows.csv" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[experiment]\nmethod = magic\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "exp.cfg:2" in err

    def test_monotone_section_exit_2(self, tmp_path, capsys):
        # the sampler is part of the method name; the section is gone
        cfg = self.write_cfg(tmp_path,
                             MINIMAL + "[monotone]\nsampler = mcmc\n")
        assert main(["run", cfg]) == 2
        assert "unknown section [monotone]" in capsys.readouterr().err

    def test_method_error_exit_3(self, tmp_path, capsys):
        # three training points cannot support six polynomial parameters
        text = ("[experiment]\nmethod = fsd\n"
                "benchmark = example1:d=2:p=1e-1\nreplications = 1\n"
                "workers = 1\n[fsd]\ntrain_size = 3\n")
        cfg = self.write_cfg(tmp_path, text)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("method error: ValueError")

    @pytest.mark.parametrize("method, section", [
        ("shift", ""), ("fsd", "[fsd]\nrestarts = 0\n")],
        ids=["shift", "fsd"])
    def test_non_finite_oracle_value_exit_3(self, tmp_path, capsys,
                                            monkeypatch, method, section):
        # NaN near one face of the cube: the training targets must be
        # rejected before any surrogate is fitted to them
        def g(X):
            return np.where(X[:, 0] > 0.9, np.nan, X[:, 0] + X[:, 1])

        problem = ToyProblem(
            name="nan-face", dimension=2, p_exact=0.125,
            function=BlackBoxFunction(g, dimension=2, threshold=0.5,
                                      vectorized=True),
            orientation=np.ones(2))
        monkeypatch.setattr(cli, "get_benchmark", lambda name: problem)
        text = (f"[experiment]\nmethod = {method}\nbenchmark = nan-face\n"
                f"replications = 1\nworkers = 1\n{section}")
        cfg = self.write_cfg(tmp_path, text)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "x")]) == 3
        assert re.match(r"method error: ValueError: oracle returned nan at "
                        r"\[0\.9", capsys.readouterr().err)

    def test_workers_flag_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path, MINIMAL)
        out_a = str(tmp_path / "wa")
        out_b = str(tmp_path / "wb")
        assert main(["run", cfg, "--output-dir", out_a]) == 0
        assert main(["run", cfg, "--output-dir", out_b, "--workers", "2"]) == 0
        assert strip_wall(read_csv(os.path.join(out_a, "rows.csv"))) == \
            strip_wall(read_csv(os.path.join(out_b, "rows.csv")))

    def test_lambda_table_subcommand(self, tmp_path):
        out = str(tmp_path / "lt")
        code = main(["lambda-table", "--p", "0.1", "--n-max", "10000",
                     "--points", "30", "--output-dir", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "lambda_crossings.csv"))

    def test_lambda_table_grid_and_constant(self, tmp_path):
        out = str(tmp_path / "lt")
        code = main(["lambda-table", "--p", "0.1,0.01", "--n-min", "50",
                     "--n-max", "5000", "--points", "20", "--c", "4",
                     "--output-dir", out])
        assert code == 0
        table = read_csv(os.path.join(out, "lambda_table.csv"))
        curve = [(int(r[1]), float(r[2])) for r in table[1:] if r[0] == "0.1"]
        assert (curve[0][0], curve[-1][0]) == (50, 5000)
        # lambda(n, p) = min(1, n exp(-n p / C)) with the given C
        assert curve[-1][1] == pytest.approx(5000 * np.exp(-5000 * 0.1 / 4),
                                             rel=1e-12)
        cross = read_csv(os.path.join(out, "lambda_crossings.csv"))[1:]
        assert [float(r[1]) for r in cross] == [
            lambda_crossing(0.1, 4.0), lambda_crossing(0.01, 4.0)]

    @pytest.mark.parametrize("argv, cfg_text", [
        pytest.param(["run"], "workers = -3\n", id="workers"),
        pytest.param(["run", "--workers", "-3"], "", id="workers-flag"),
        pytest.param(["run"], "\n[dyadic]\nlipschitz = -2\n",
                     id="lipschitz"),
        pytest.param(["run"], "\n[dyadic]\nlipschitz = nan\n",
                     id="lipschitz-nan"),
        pytest.param(["run"], "\n[fsd]\ntrain_size = -5\n", id="train_size"),
        pytest.param(["run"], "\n[fsd]\nrestarts = -1\n", id="restarts"),
        pytest.param(["run"], "\n[shift]\nalpha = 0\n", id="alpha-0"),
        pytest.param(["run"], "\n[shift]\nalpha = 5\n", id="alpha-5"),
        pytest.param(["lambda-table", "--points", "0"], None, id="points"),
        pytest.param(["lambda-table", "--c", "0"], None, id="c"),
        pytest.param(["lambda-table", "--c", "inf"], None, id="c-inf")])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, argv,
                                       cfg_text):
        if cfg_text is not None:
            argv = argv[:1] + [self.write_cfg(tmp_path, MINIMAL + cfg_text),
                               *argv[1:]]
        out = str(tmp_path / "out")
        assert main(argv + ["--output-dir", out]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_removed_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["timing"])
        assert exc.value.code == 2

    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        assert capsys.readouterr().out == (
            "example1:d=<int>:p=<float>  Gamma-ratio family with exact Beta failure law\n"
            "linear:d=<int>:y=<float>    coordinate sum with Irwin-Hall failure law\n"
            "lipschitz1d:p=<float>       identity on [0,1], failure set [0,p)\n"
            "\n"
            "Concrete instances substitute values, e.g. example1:d=3:p=5e-3\n")
