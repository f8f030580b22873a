"""Command line behaviour: exit codes, payloads, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gitfankit
from gitfankit import cli
from gitfankit.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ysets_oracle_n3(capsys):
    code, out, _ = run(["ysets", "-n", "3", "--oracle"], capsys)
    assert code == 0
    assert "equal: true" in out
    assert "37 Y-sets" in out


def test_ysets_oracle_mismatch_fails_the_claim(monkeypatch, tmp_path, capsys):
    # an oracle missing one Y-set (here the empty one) is a failed claim
    real = cli.gr.brute_force_supports
    monkeypatch.setattr(cli.gr, "brute_force_supports", lambda n: real(n) - {0})
    out = tmp_path / "ysets.json"
    code, stdout, _ = run(["ysets", "-n", "3", "--oracle", "-o", str(out)], capsys)
    assert code == 1 and "equal: false" in stdout
    assert json.loads(out.read_text())["oracle"] == {"count": 36, "equal": False}


def test_ysets_n2_count(capsys):
    code, out, _ = run(["ysets", "-n", "2"], capsys)
    assert code == 0
    assert "8 Y-sets" in out


def test_ysets_guard(capsys):
    code, _, err = run(["ysets", "-n", "7"], capsys)
    assert code == 2
    assert "guard" in err


def test_fan_gitfan_n3(capsys):
    code, out, _ = run(["fan", "gitfan", "-n", "3"], capsys)
    assert code == 0
    assert "4 maximal cones" in out


def test_fan_sigmar_equals_sigma1_n3(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["fan", "sigmar", "-n", "3", "-o", str(a)]) == 0
    assert main(["fan", "sigma1", "-n", "3", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# sha256 of the -o payload of each command; the poset labels carry every
# face's facets and span equations, which the stellar pieces derive from their
# star cones' facets
PINNED_PAYLOADS = {
    "fan sigmar -n 5": "34b0ab5cd49ce81df82c85923754c6268de4d26923f650afcb32151e9187c46f",
    "poset sigmar -n 4": "f1699a9c5b33f268b37053867355a4ce37bdbfc7a5bd1e73a9311985b90e3203",
    "poset sigmar -n 5": "912999bd630c6fcae9102e078010390684271d57cc1d98b4b9fd9ba2a319e6a1",
    "poset sigma1 -n 5": "337e5975c2a09860834b605e97a5a6c585cd0ce80655ecfa826ef583acbe18d1",
    "poset sigma0 -n 5": "bbf84c14937c6fefacecdcd852655c0fa30b6765de3447ec0fd11ed63e85c61d",
    "fan gitfan -n 5": "9ffa13104d878ea9f924588952975b400f890e0fc18eb5ac412f2daefd062ac4",
    "fan gitfan-star -n 5": "68c28b17cd1baec00439327282bc1b652c5db12e113d40f00482c7e55d19c0b9",
    "poset gitfan -n 5": "d8fe8226127c8596ce9cc1ba2ccbe8902dd20300358347d937478820d9e977ba",
    "verify walls -n 4": "de03cc9b8766ad5e3e10de69db4b7341f44914792042cf1ad603e1a7e2e6ec92",
    "verify delta-subfan -n 4": "39036fd218955dd12920d95a040b23d530359c77dfc6857103f062b2b68a63d3",
    "fan delta -n 4": "5578301469962a7cbc71e6fe7f0b627cf9e2a430e4a39b2e59d6058a80e09024",
    "fan sigma0 -n 5": "95f0399365635e73ead70d275de1e00ca9c4beddf0b40e44d1aeb655c399ee1a",
    "fan sigma1 -n 5": "d804c466cdba5eb1784e8104d941354fed65645c51567c52ec024443a6642360",
    "ysets -n 6": "52c5fae7cfbf3531fd4894e8d703a67030a7f9d4bd1dd43e91ce2af8cb46c601",
    "ysets -n 3 --oracle": "e4bdcc4051973b85579deae69a3012017101e647b43fdd7451d14640eb8f38fa",
    "verify delta-subfan -n 5": "5362a3cd7c48e858371630d9cb4af5468edc63fdd49ee6a6e319d24fcca178c0",
    "verify rays -n 5": "8164dfb78c9e6494f066e934c7910de5b006ceeceecc5a11a4f1a7c8f1123728",
    "fan delta -n 5": "c2fd4925955e6bf30fb7cdfa6c1965a43b5d90706579f102b0ad30c766638d50",
    "verify all -n 4 --seed 2024": "4ba14b8b7bc1802f2fd4a72687ebfde33f2a7c9233f31a387d3aadf55466865e",
    "poset delta -n 5": "95526714d36f4ba67427ecc10db75703e0f95b51c43ac51494545a58b345985b",
}


@pytest.mark.parametrize("command", PINNED_PAYLOADS, ids=lambda c: c.replace(" -n ", "-").replace(" ", "-"))
def test_payload_pinned(command, tmp_path, capsys):
    out = tmp_path / "payload.json"
    assert main(command.split() + ["-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_PAYLOADS[command]


# sha256 of the -o payload of `centers -n N -A BLOCK` for every block of
# {2..N} with at least two elements, N = 3, 4, 5
PINNED_CENTERS = {
    (3, "2,3"): "f10066aa877e21d4c7315e86948ce31e154bf6f1194356edcfac297df496c6ea",
    (4, "2,3"): "b6a3e4bbc1476c4fc0a6588dd7dc501fdbcd64b84c0cb784dad8e85a531e429d",
    (4, "2,4"): "57e8e057e7575230f94819f0046428666e4cbd6008a02d7fb020dff330c2dc71",
    (4, "3,4"): "3c63d4757535e8f61e0e1703e78b1f8abbd1e24c0d9dae0ac64c187d81a55de1",
    (4, "2,3,4"): "fffe6e7dd4876fec36d1c240a97915fdf2d5a88ab964a0ff4c31321c6d288973",
    (5, "2,3"): "81d9c8d58c7c94d561cf987fa18a29f0c17271e2c7e688d029d5f17a0572f586",
    (5, "2,4"): "6259a904c3304249151f0956e325656931eb92b5c758c63e2bb77669d4f3494e",
    (5, "2,5"): "4e196c2522fd61a4fd7469700c2ba706f24993ce329a0a577f3a0a861a87fb73",
    (5, "3,4"): "dafd1ea346f8dfe3395c989f71e2f878043d7ee2cdf1342201314a75f993a10d",
    (5, "3,5"): "6e4f565e371cf3ecf667dab18a8f03d0a618266c64e68879e88940ea9e48ec79",
    (5, "4,5"): "bc5114c618ab3941c6433ba4ef9a8cd79a1de4e4992992b2801572030dd99795",
    (5, "2,3,4"): "15260b5a1ea9593558a99c1f0b7090909dfc710fbffc1371e8e0f9978b42889f",
    (5, "2,3,5"): "c72f96c08802bc2ab408a228f7740714a0d51cfd72a2b4ccc9542303129a7d90",
    (5, "2,4,5"): "291671d142d1d849ff1b8893603cb481955160cf29dad884cb67097abff2767b",
    (5, "3,4,5"): "54f2fcdef72f2631b09fb532cc95044fae9443cc258f479a3dea6f97ff36b08a",
    (5, "2,3,4,5"): "d5812b9f778749ec6ae7ed34f710116330abfe10c65240edd458901c91718d02",
}


@pytest.mark.parametrize("n, block", PINNED_CENTERS, ids=lambda x: str(x).replace(",", ""))
def test_centers_payload_pinned(n, block, tmp_path, capsys):
    out = tmp_path / "centers.json"
    assert main(["centers", "-n", str(n), "-A", block, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CENTERS[n, block]


def test_fan_delta_guard(capsys):
    code, _, err = run(["fan", "delta", "-n", "6"], capsys)
    assert code == 2


def test_fan_payload_schema(tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert main(["fan", "gitfan", "-n", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["n"] == 3
    assert all(isinstance(x, str) for ray in payload["rays"] for x in ray)
    assert all(
        isinstance(i, int) for cone in payload["cones"] for i in cone["rays"]
    )


def test_verify_delta_subfan_n3(capsys):
    code, out, _ = run(["verify", "delta-subfan", "-n", "3"], capsys)
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize(
    "args", [["verify", "delta-subfan", "-n", "3"], ["fan", "delta", "-n", "3"]]
)
def test_delta_rep_outside_delta_is_internal_failure(args, monkeypatch, capsys):
    # every tree cone representative must lie in Delta; one that does not is
    # an internal validation failure (exit 3), not a traceback
    import gitfankit.grassmann as gr

    gitfankit.clear_caches()
    monkeypatch.setattr(gr, "delta_contains", lambda p, wd: False)
    code, out, err = run(args, capsys)
    assert code == 3
    assert "internal validation failure" in err
    assert "Traceback" not in err + out


def test_centers_assertion_is_internal_failure(monkeypatch, capsys):
    import gitfankit.gitfan as gf

    def broken(*args):
        raise AssertionError("carrier does not span its ray")

    monkeypatch.setattr(gf, "center_ideal", broken)
    code, out, err = run(["centers", "-n", "3", "-A", "2,3"], capsys)
    assert code == 3
    assert "internal validation failure" in err
    assert "Traceback" not in err + out


@pytest.mark.parametrize(
    "args, module, attr",
    [
        (["verify", "thm44", "-n", "3"], "semilattice", "blow_up"),
        (["verify", "fk-bridge", "-n", "3"], "semilattice", "blow_up"),
        (["fan", "sigmar", "-n", "4"], "gitfan", "stellar_subdivide"),
        (["poset", "gitfan", "-n", "3"], "semilattice", "face_poset"),
        (["centers", "-n", "3", "-A", "2,3"], "gitfan", "center_ideal"),
    ],
    ids=["verify-thm44", "verify-fk-bridge", "fan-sigmar", "poset-gitfan", "centers"],
)
def test_library_value_error_is_internal_failure(args, module, attr, monkeypatch, capsys):
    # the CLI validates its inputs before it calls the library, so a
    # ValueError raised inside a run is internal: exit 3, one stderr line
    import importlib

    def refused(*args, **kwargs):
        raise ValueError("refused")

    gitfankit.clear_caches()
    monkeypatch.setattr(importlib.import_module(f"gitfankit.{module}"), attr, refused)
    code, out, err = run(args, capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("internal validation failure") and "refused" in err
    assert "Traceback" not in err + out


def test_verify_walls_n4(capsys):
    code, out, _ = run(["verify", "walls", "-n", "4"], capsys)
    assert code == 0


def test_verify_fk_bridge_seeded(capsys):
    code, out, _ = run(["verify", "fk-bridge", "-n", "3", "--seed", "7"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["ysets", "-n", "3"],
        ["fan", "gitfan", "-n", "3"],
        ["centers", "-n", "4", "-A", "2,3"],
        ["poset", "gitfan", "-n", "3"],
    ],
)
def test_seed_is_offered_on_verify_alone(args, capsys):
    """Only the verify sweeps read a seed; elsewhere it is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_verify_guard(capsys):
    code, _, err = run(["verify", "delta-subfan", "-n", "6"], capsys)
    assert code == 2


def test_verify_report_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "rays", "-n", "3", "-o", str(a), "--seed", "7"]) == 0
    assert main(["verify", "rays", "-n", "3", "-o", str(b), "--seed", "7"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["claim"] == "rays" and payload["result"] is True
    assert "elapsed" not in json.dumps(payload)


def test_centers_fixture(capsys):
    code, out, _ = run(["centers", "-n", "3", "-A", "2,3"], capsys)
    assert code == 0
    assert "T2*S3-T3*S2" in out
    assert "extra: T2*T3" in out


def test_centers_schema_n4(capsys):
    code, out, _ = run(["centers", "-n", "4", "-A", "2,3,4"], capsys)
    assert code == 0
    for gen in ("T2*S3-T3*S2", "T2*S4-T4*S2", "T3*S4-T4*S3"):
        assert gen in out


def test_centers_rejects_singleton(capsys):
    code, _, err = run(["centers", "-n", "3", "-A", "3"], capsys)
    assert code == 2


def test_centers_rejects_a_block_that_is_not_indices(capsys):
    code, _, err = run(["centers", "-n", "4", "-A", "2,x"], capsys)
    assert code == 2
    assert err == "block must be a comma-separated list of indices\n"


def test_centers_guard(monkeypatch, capsys):
    class Built(Exception):
        pass

    def build_sigma_fan(n, which):
        raise Built((n, which))

    monkeypatch.setattr(cli.gfan, "sigma_fan_cached", build_sigma_fan)
    code, _, err = run(["centers", "-n", "6", "-A", "2,3"], capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "guard" in err
    with pytest.raises(Built) as exc:
        main(["centers", "-n", "6", "-A", "2,3", "--force"])
    assert exc.value.args[0] == (6, 0)


def test_poset_dump(tmp_path, capsys):
    out = tmp_path / "poset.json"
    assert main(["poset", "sigma1", "-n", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload) >= {"elements", "hasse"}
    assert len(payload["elements"]) == 18


def test_n_too_small(capsys):
    code, _, err = run(["ysets", "-n", "1"], capsys)
    assert code == 2


def test_verify_all_n3(capsys):
    code, out, _ = run(["verify", "all", "-n", "3", "--seed", "2024"], capsys)
    assert code == 0
    for claim in ("walls", "star-subfan", "fk-bridge", "thm44", "delta-subfan", "rays", "nu-equality"):
        assert f"{claim}: pass" in out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "delta-subfan", "-n", "2"],
        ["verify", "rays", "-n", "2"],
        ["verify", "nu-equality", "-n", "2"],
        ["poset", "sigma0", "-n", "2"],
        ["poset", "sigma1", "-n", "2"],
        ["poset", "sigmar", "-n", "2"],
        ["poset", "gitfan-star", "-n", "2"],
        ["poset", "delta", "-n", "2"],
        ["fan", "delta", "-n", "2"],
    ],
)
def test_below_domain_is_usage_error(args, capsys):
    code, _, err = run(args, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(jobs, capsys):
    code, _, err = run(["ysets", "-n", "3", "--jobs", jobs], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("env", ["abc", "0", "2"])
def test_jobs_environment_variable_is_ignored(env, tmp_path, monkeypatch, capsys):
    args = ["verify", "fk-bridge", "-n", "2", "--seed", "5", "-o"]
    monkeypatch.delenv("GITFANKIT_JOBS", raising=False)
    assert run([*args, str(tmp_path / "unset.json")], capsys)[0] == 0
    monkeypatch.setenv("GITFANKIT_JOBS", env)
    assert run([*args, str(tmp_path / "set.json")], capsys)[0] == 0
    assert (tmp_path / "set.json").read_bytes() == (tmp_path / "unset.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["ysets", "-n", "3"],
    ["fan", "gitfan", "-n", "3"],
    ["verify", "walls", "-n", "3"],
    ["centers", "-n", "3", "-A", "2,3"],
    ["poset", "gitfan", "-n", "3"],
], ids=lambda a: a[0])
def test_every_subcommand_accepts_one_job(args, capsys):
    assert run([*args, "--jobs", "1"], capsys)[0] == 0


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(["fan", "gitfan", "-n", "3", "-o", str(target)], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "all", "-n", "4"],
        ["fan", "gitfan", "-n", "3"],
        ["poset", "sigma1", "-n", "3"],
    ],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory", "read-only-file"])
def test_bad_output_path_fails_before_computing(args, where, tmp_path, monkeypatch, capsys):
    def forbidden(*a, **k):
        raise AssertionError("computed before checking the output path")

    monkeypatch.setattr(cli, "_run_claim", forbidden)
    monkeypatch.setattr(cli, "_build_fan", forbidden)
    if where == "missing-dir":
        target = tmp_path / "missing" / "x.json"
    elif where == "directory":
        target = tmp_path
    else:
        target = tmp_path / "x.json"
        target.write_text("kept\n")
        monkeypatch.setattr(cli.os, "access", lambda p, mode: p != str(target))
    code, _, err = run([*args, "-o", str(target)], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"cannot write {target}: ")
    if where == "missing-dir":
        assert not target.parent.exists()
    elif where == "read-only-file":
        assert target.read_text() == "kept\n"


def test_good_output_path_is_not_touched_before_writing(tmp_path, monkeypatch, capsys):
    target = tmp_path / "x.json"
    seen = []

    def fake_claim(claim, n, seed, jobs):
        seen.append(target.exists())
        return {"claim": claim, "n": n, "result": True}

    monkeypatch.setattr(cli, "_run_claim", fake_claim)
    code, _, _ = run(["verify", "thm44", "-n", "3", "-o", str(target)], capsys)
    assert code == 0
    assert seen == [False]
    assert json.loads(target.read_text())["claim"] == "thm44"


def test_verify_all_skips_claims_outside_domain(monkeypatch, capsys):
    ran = []

    def fake_claim(claim, n, seed, jobs):
        ran.append(claim)
        return {"claim": claim, "n": n, "result": True}

    monkeypatch.setattr(cli, "_run_claim", fake_claim)
    assert main(["verify", "all", "-n", "2"]) == 0
    assert ran == ["walls", "fk-bridge", "thm44"]
    ran.clear()
    assert main(["verify", "all", "-n", "6", "--force"]) == 0
    assert ran == ["walls", "star-subfan", "fk-bridge", "thm44", "delta-subfan", "rays", "nu-equality"]
    capsys.readouterr()


def test_verify_all_names_skipped_claims(monkeypatch, capsys):
    def fake_claim(claim, n, seed, jobs):
        return {"claim": claim, "n": n, "result": True}

    monkeypatch.setattr(cli, "_run_claim", fake_claim)
    code, out, _ = run(["verify", "all", "-n", "2"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if "skipped" in l]
    assert lines == [
        "star-subfan: skipped (n=2 outside 3..5)",
        "delta-subfan: skipped (n=2 outside 3..5)",
        "rays: skipped (n=2 outside 3..5)",
        "nu-equality: skipped (n=2 outside 3..5)",
    ]
    code, out, _ = run(["verify", "all", "-n", "6"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if "skipped" in l]
    assert lines == [
        "walls: skipped (n=6 outside 2..5; --force lifts the maximum)",
        "star-subfan: skipped (n=6 outside 3..5; --force lifts the maximum)",
        "delta-subfan: skipped (n=6 outside 3..5; --force lifts the maximum)",
        "rays: skipped (n=6 outside 3..5; --force lifts the maximum)",
        "nu-equality: skipped (n=6 outside 3..5; --force lifts the maximum)",
    ]
    assert len(out.splitlines()) == 7


@pytest.mark.parametrize("args", [
    ["ysets", "-n", "3", "--oracle"],
    ["fan", "gitfan", "-n", "3"],
    ["poset", "gitfan", "-n", "3"],
    ["verify", "walls", "-n", "3"],
    ["centers", "-n", "3", "-A", "2,3"],
    ["verify", "all", "-n", "5"],
])
def test_json_format_stdout_is_the_payload(args, monkeypatch, capsys):
    def fake_claim(claim, n, seed, jobs):
        return {"claim": claim, "n": n, "result": True}

    if args[:2] == ["verify", "all"]:
        monkeypatch.setattr(cli, "_run_claim", fake_claim)
    code, out, err = run(args + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == int(args[args.index("-n") + 1])
    # the summary lines are still shown, on stderr
    assert err.strip()


def fresh_python(code, *args, **env):
    """Run code in a new interpreter that imports this checkout's package,
    with the given environment variables set."""
    src = str(Path(gitfankit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("hash_seed", ["0", "3"])
def test_payload_is_independent_of_the_hash_seed(hash_seed, tmp_path):
    # sets of strings iterate in an order set by PYTHONHASHSEED; no payload
    # may depend on it
    code = "import sys; from gitfankit.cli import main; sys.exit(main(sys.argv[2:] + ['-o', sys.argv[1]]))"
    out = tmp_path / "payload.json"
    for argv, digest in [
        ("verify all -n 4 --seed 2024", PINNED_PAYLOADS["verify all -n 4 --seed 2024"]),
        ("centers -n 5 -A 2,3,4,5", PINNED_CENTERS[5, "2,3,4,5"]),
    ]:
        proc = fresh_python(code, str(out), *argv.split(), PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_cli_import_leaves_numpy_out():
    code = "import sys, gitfankit.cli; sys.exit('numpy' in sys.modules)"
    assert fresh_python(code).returncode == 0


UNUSED_MODULES = ("dataclasses", "inspect", "fractions", "decimal")


def test_cli_run_loads_no_unused_module(tmp_path):
    code = f"""if True:
        import sys
        unused = {UNUSED_MODULES!r}
        from gitfankit import cli
        print([m for m in unused if m in sys.modules])
        assert cli.main(["fan", "sigmar", "-n", "3", "-o", sys.argv[1]]) == 0
        print([m for m in unused if m in sys.modules])
    """
    proc = fresh_python(code, str(tmp_path / "sigmar.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), proc.stdout
    assert json.loads((tmp_path / "sigmar.json").read_text())["n"] == 3


def test_rational_values_load_fraction_when_they_occur():
    code = """if True:
        import sys
        from gitfankit.exact_linalg import primitive_vector, solve
        assert "fractions" not in sys.modules
        from fractions import Fraction
        assert primitive_vector(["1/2", Fraction(1, 3)]) == (3, 2)
        assert primitive_vector([2, 4, -6]) == (1, 2, -3)
        x = solve([[2, 0], [0, 3], [2, 3]], [1, 1, 2])
        assert x == (Fraction(1, 2), Fraction(1, 3))
        assert all(type(v) is Fraction for v in x)
        assert solve([[1, 1], [1, 1]], [0, 1]) is None
    """
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr


class Built(Exception):
    """Raised by a patched builder or runner: the guard let the run through."""


def guard_rows():
    """(row, command line without -n) for every guarded run of the CLI."""
    for key in cli.GUARDS:
        if key in cli.FANS:
            yield key, ["fan", key]
            yield key, ["poset", key]
        elif key in cli.CLAIMS:
            yield key, ["verify", key]
        elif key == "oracle":
            yield key, ["ysets", "--oracle"]
        elif key == "centers":
            yield key, ["centers", "-A", "2,3"]
        else:
            yield key, [key]


@pytest.mark.parametrize("key, args", [pytest.param(k, a, id=" ".join(a)) for k, a in guard_rows()])
def test_guard_row(key, args, monkeypatch, capsys):
    def builder(name):
        def build(*a, **k):
            raise Built(name, a)

        return build

    # every library entry point the CLI calls after its guards
    monkeypatch.setattr(cli, "_build_fan", builder("fan"))
    monkeypatch.setattr(cli, "_run_claim", builder("claim"))
    for name in ("y_set_masks", "brute_force_supports"):
        monkeypatch.setattr(cli.gr, name, builder(name))
    monkeypatch.setattr(cli.gfan, "nu_vector", builder("nu_vector"))
    lo, hi = cli.GUARDS[key]

    code, _, err = run([*args, "-n", str(lo - 1)], capsys)
    assert code == 2 and len(err.strip().splitlines()) == 1
    if hi == math.inf:
        return
    n = str(hi + 1)
    code, _, err = run([*args, "-n", n], capsys)
    assert code == 2
    assert err.startswith("guard: ") and len(err.strip().splitlines()) == 1
    with pytest.raises(Built) as exc:
        main([*args, "-n", n, "--force"])
    err = capsys.readouterr().err
    assert err.startswith("warning: forcing ") and len(err.strip().splitlines()) == 1
    name, called_with = exc.value.args
    assert hi + 1 in called_with
    if name in ("fan", "claim"):
        assert called_with[0] == key


def test_dispatch_tables_match_guard_rows():
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert not set(cli.FANS) & set(cli.CLAIMS)
    assert set(cli.GUARDS) == set(cli.FANS) | set(cli.CLAIMS) | {"ysets", "oracle", "centers"}
    assert {"ysets", "centers"} <= set(subcommands)
    choices = {
        name: [a.choices for a in sub._actions if a.dest in ("which", "claim")]
        for name, sub in subcommands.items()
    }
    assert choices["fan"] == choices["poset"] == [list(cli.FANS)]
    assert choices["verify"] == [[*cli.CLAIMS, "all"]]


def test_no_force_parameter_outside_cli():
    import inspect

    from gitfankit import exact_linalg, gitfan, grassmann, polyhedral, semilattice

    found = []
    for mod in (gitfan, grassmann, polyhedral, semilattice, exact_linalg):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            fns = [(name, obj)]
            if inspect.isclass(obj):
                fns = [(f"{name}.{m}", f) for m, f in vars(obj).items()]
            for label, fn in fns:
                fn = getattr(fn, "__func__", fn)
                if callable(fn) and "force" in inspect.signature(fn).parameters:
                    found.append(f"{mod.__name__}.{label}")
    assert found == []
