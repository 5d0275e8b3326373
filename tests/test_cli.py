import re

import pytest

from caresim import preset_full_scale, preset_single_run
from caresim.cli import build_parser, config_from_args, main


def test_unknown_flag_is_usage_error(capsys):
    assert main(["--bogus"]) == 2
    capsys.readouterr()


def test_zero_doctors_is_usage_error(capsys):
    code = main(["--preset", "paper-single", "--doctors", "0", "--out", "unused"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_seed_beyond_64_bits_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--preset", "paper-single", "--seed", str(2**64), "--out", str(out)]) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_missing_sizes_without_preset_is_usage_error(capsys):
    assert main(["--model", "classical"]) == 2
    assert "without --preset you must pass --doctors, --patients, --rounds, --infected" in \
        capsys.readouterr().err
    assert main(["--patients", "20", "--rounds", "2"]) == 2
    assert "without --preset you must pass --doctors, --infected" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["classical", "css"])
@pytest.mark.parametrize("preset, build, sizes", [
    ("paper-full", preset_full_scale, (100, 1000, 100, 200, 50)),
    ("paper-single", preset_single_run, (15, 100, 20, 100, 1)),
])
def test_preset_flag_builds_the_documented_setup(preset, build, sizes, model):
    config = config_from_args(build_parser().parse_args(["--preset", preset, "--model", model]))
    assert config == build(model)
    assert (config.num_doctors, config.num_patients, config.num_rounds,
            config.num_infected_per_round, config.num_repeats) == sizes


def test_snapshot_flag_under_classical_is_usage_error(capsys):
    code = main(["--preset", "paper-single", "--snapshot-every", "5", "--out", "unused"])
    assert code == 2
    capsys.readouterr()


def test_paper_single_writes_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--preset", "paper-single", "--seed", "9", "--out", str(out)])
    assert code == 0
    text = (out / "metrics.csv").read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 20 * 2
    assert "doctor fitness" in capsys.readouterr().out


def test_css_snapshots_written_at_intervals(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "--preset", "paper-single", "--model", "css", "--seed", "9",
        "--snapshot-every", "5", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.glob("network_*.json"))
    assert names == [
        "network_run000_round0005.json",
        "network_run000_round0010.json",
        "network_run000_round0015.json",
        "network_run000_round0020.json",
    ]


def test_explicit_sizes_without_preset(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "--model", "classical", "--doctors", "6", "--patients", "12",
        "--rounds", "3", "--infected", "6", "--repeats", "2",
        "--tournament" + "s-per-round", "2", "--elites", "1",
        "--mutation-chance", "0.4", "--crossover-chance", "0.2",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    lines = (out / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 3 * 2


# Every config flag: (the SimulationConfig field it sets, a value no other flag uses).
CONFIG_FLAG_VALUES = {
    "--doctors": ("num_doctors", 11),
    "--patients": ("num_patients", 130),
    "--rounds": ("num_rounds", 13),
    "--repeats": ("num_repeats", 3),
    "--infected": ("num_infected_per_round", 17),
    "--seed": ("base_seed", 19),
    "--snapshot-every": ("snapshot_every", 7),
    "--tournaments-per-round": ("tournaments_per_round", 23),
    "--elites": ("num_elites", 2),
    "--mutation-chance": ("mutation_chance", 0.29),
    "--crossover-chance": ("crossover_chance", 0.31),
}


@pytest.mark.parametrize("preset", [[], ["--preset", "paper-full"], ["--preset", "paper-single"]])
def test_each_config_flag_sets_its_field(preset):
    parser = build_parser()
    flags = set(re.findall(r"\[(--[a-z-]+)", parser.format_usage())) - {"--model", "--preset", "--out"}
    assert flags == set(CONFIG_FLAG_VALUES)
    argv = ["--model", "css", *preset]
    for flag, (_, value) in CONFIG_FLAG_VALUES.items():
        argv += [flag, str(value)]
    config = config_from_args(parser.parse_args(argv))
    assert {name: getattr(config, name) for name, _ in CONFIG_FLAG_VALUES.values()} == \
        dict(CONFIG_FLAG_VALUES.values())
    assert config.model.value == "css"
    assert config.tournament_size == 5  # no flag sets it


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["--preset", "paper-single", "--seed", "1",
                 "--out", str(blocker / "nested")])
    assert code == 1
    assert "caresim:" in capsys.readouterr().err


def test_unwritable_snapshot_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "network_run000_round0005.json").mkdir(parents=True)
    code = main(["--preset", "paper-single", "--model", "css", "--seed", "1",
                 "--snapshot-every", "5", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("caresim: cannot write network snapshot to")
    assert "network_run000_round0005.json" in err


def test_repeated_invocations_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--preset", "paper-single", "--seed", "123", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


@pytest.mark.parametrize("model, drain", [
    ("classical", "last active round 10, latent infected 100/100"),
    ("css", "last active round 5, latent infected 100/100"),
])
def test_summary_reports_care_drain(tmp_path, capsys, model, drain):
    argv = ["--preset", "paper-single", "--model", model, "--seed", "123", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert drain in capsys.readouterr().out
