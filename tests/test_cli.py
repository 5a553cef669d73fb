import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dkequiv.builders import build_delta_bt, build_fi_input, build_fi_sharp
from dkequiv.cli import main, make_parser
from dkequiv.equivalence import KernelModule, build_kernel_module
from dkequiv.functors import random_pointed_functor
from dkequiv.structure import MRStructure, check_assumptions


def read(path):
    return json.loads(path.read_text())


def _env_with_src():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_example_delta(tmp_path, capsys):
    rc = main(["example", "delta_bt", "--size", "4", "--out", str(tmp_path)])
    assert rc == 0
    cat = read(tmp_path / "delta_bt_4.structure.json")
    rep = read(tmp_path / "delta_bt_4.assumptions.json")
    assert rep["passed"]
    assert len(cat["morphisms"]) == 35
    assert all(c["passed"] for c in rep["assumptions"])


def test_example_fi_reports_bijections(tmp_path):
    rc = main(["example", "fi_sharp", "--size", "3", "--out", str(tmp_path)])
    assert rc == 0
    rep = read(tmp_path / "fi_sharp_3.assumptions.json")
    cat = read(tmp_path / "fi_sharp_3.structure.json")
    labels = rep["r_class_labels"]
    # exactly the bijections: all entries defined, same source/target size
    mors = cat["morphisms"]
    for i, m in enumerate(mors):
        lab = m["label"]
        total = lab != "()" and "0" not in lab.split(",")
        bij = m["dom"] == m["cod"] and (total or m["dom"] == 0)
        assert (lab in labels and i in rep["r_class"]) == bij or lab not in labels


def test_example_bad_name_and_size(tmp_path):
    assert main(["example", "delta_bt", "--size", "0", "--out", str(tmp_path)]) == 3


def test_usage_errors_exit_3(tmp_path, capsys):
    assert main(["example", "bogus", "--out", str(tmp_path)]) == 3
    assert main(["certify", "--size", "many", "--out", str(tmp_path)]) == 3
    assert main([]) == 3
    capsys.readouterr()
    assert main(["certify", "--name", "bogus", "--out", str(tmp_path / "c.json")]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "unknown builder bogus", "witness": None
    }
    assert main(["--help"]) == 0
    assert "usage: dkequiv" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["certify", "--name", "delta_bt", "--size", "0"], "delta_bt requires --size >= 1"),
    (["certify", "--name", "fi_sharp", "--size", "-1"], "fi_sharp requires --size >= 0"),
    (["example", "fi_sharp", "--size", "-1"], "fi_sharp requires --size >= 0"),
    (["example", "cube", "--size", "-1"], "cube requires --size >= 0"),
])
def test_bad_sizes_exit_3(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": message, "witness": None}
    assert not (tmp_path / "o").exists()


def test_bad_size_exits_3_without_asserts(tmp_path):
    """The size check must not rely on assert, which python -O strips."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "dkequiv.cli", "certify", "--name",
         "delta_bt", "--size", "0", "--out", str(tmp_path / "c.json")],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "delta_bt requires --size >= 1"


def test_example_par_roundtrip(tmp_path):
    base = tmp_path / "fi2.base.json"
    base.write_text(json.dumps(build_fi_input(2).to_jsonable()))
    rc = main(["example", "par", "--base", str(base), "--out", str(tmp_path)])
    assert rc == 0


def test_example_par_missing_pullback_exits_3(tmp_path, capsys):
    # three objects, cospan with no span over it: pullback cannot exist
    from dkequiv.fincat import FinCat

    cat = FinCat(
        3,
        [0, 1, 2, 0, 1],
        [0, 1, 2, 2, 2],
        [0, 1, 2],
        [
            [0, None, None, None, None],
            [None, 1, None, None, None],
            [None, None, 2, 3, 4],
            [3, None, None, None, None],
            [None, 4, None, None, None],
        ],
        ["X", "Y", "Z"],
        ["idX", "idY", "idZ", "m", "f"],
    )
    data = cat.to_jsonable()
    data["e_class"] = [0, 1, 2, 4]
    data["m_class"] = [0, 1, 2, 3]
    base = tmp_path / "bad.base.json"
    base.write_text(json.dumps(data))
    rc = main(["example", "par", "--base", str(base), "--out", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "pullback" in out


def test_example_par_dangling_id_exits_3(tmp_path, capsys):
    data = build_fi_input(1).to_jsonable()
    data["e_class"].append(99)
    base = tmp_path / "dangling.base.json"
    base.write_text(json.dumps(data))
    rc = main(["example", "par", "--base", str(base), "--out", str(tmp_path)])
    assert rc == 3
    out = json.loads(capsys.readouterr().out)
    assert out["witness"] == [{"problem": "dangling id in e_class", "id": 99}]


def test_check_command(tmp_path, capsys):
    main(["example", "delta_bt", "--size", "3", "--out", str(tmp_path)])
    rc = main(["check", str(tmp_path / "delta_bt_3.structure.json")])
    assert rc == 0
    # corrupt the star table: exit 2 with the failure reported
    data = read(tmp_path / "delta_bt_3.structure.json")
    star = data["star"]
    m = next(k for k, v in star.items() if k != v)
    others = [k for k in star if star[k] != star[m] and k != m]
    data["star"][m] = star[others[0]]
    bad = tmp_path / "bad.structure.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    # one JSON object, the error, and no summary line before it
    (line,) = capsys.readouterr().out.splitlines()
    out = json.loads(line)
    assert out["error"] == "checks failed"
    assert out["witness"]["passed"] is False


def test_check_out_writes_the_payload(tmp_path, capsys):
    # the payload example writes beside the structure, passing or failing
    main(["example", "delta_bt", "--size", "3", "--out", str(tmp_path)])
    path = tmp_path / "delta_bt_3.structure.json"
    out = tmp_path / "reports" / "check.json"
    assert main(["check", str(path), "--out", str(out)]) == 0
    assert out.read_text() == (tmp_path / "delta_bt_3.assumptions.json").read_text()
    data = read(path)
    m = next(k for k, v in data["star"].items() if k != v)
    data["star"][m] = m
    bad = tmp_path / "bad.structure.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["check", str(bad), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["witness"] == read(out)
    assert read(out)["passed"] is False


def test_check_malformed_input(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 3
    p2 = tmp_path / "wrong.json"
    p2.write_text(json.dumps({"objects": ["a"]}))
    assert main(["check", str(p2)]) == 3


def _write_structure_and_functor(tmp_path, dims=(1, 2, 1), seed=5):
    main(["example", "delta_bt", "--size", "3", "--out", str(tmp_path)])
    spath = tmp_path / "delta_bt_3.structure.json"
    km = build_kernel_module(build_delta_bt(3), validate=False)
    f = random_pointed_functor(km.d, dims, seed=seed)
    fpath = tmp_path / "F.json"
    fpath.write_text(
        json.dumps(f.to_jsonable(category=str(spath)), sort_keys=True, indent=2)
    )
    return spath, fpath


def test_transport_hat_and_tilde_roundtrip(tmp_path, capsys):
    spath, fpath = _write_structure_and_functor(tmp_path)
    tpath = tmp_path / "T.json"
    rc = main(["transport", "hat", "--category", str(spath),
               "--functor", str(fpath), "--out", str(tpath)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["dims_in"] == [1, 2, 1]
    back = tmp_path / "FT.json"
    rc = main(["transport", "tilde", "--category", str(spath),
               "--functor", str(tpath), "--out", str(back)])
    assert rc == 0
    assert read(back)["dims"] == [1, 2, 1]


def test_transport_hat_zero_functor(tmp_path):
    spath, fpath = _write_structure_and_functor(tmp_path, dims=(0, 0, 0))
    tpath = tmp_path / "T0.json"
    assert main(["transport", "hat", "--category", str(spath),
                 "--functor", str(fpath), "--out", str(tpath)]) == 0
    assert read(tpath)["dims"] == [0, 0, 0]


def test_transport_rejects_wrong_kind(tmp_path):
    spath, fpath = _write_structure_and_functor(tmp_path)
    assert main(["transport", "tilde", "--category", str(spath),
                 "--functor", str(fpath), "--out", str(tmp_path / "x.json")]) == 3


def test_transport_rejects_invalid_functor(tmp_path):
    spath, fpath = _write_structure_and_functor(tmp_path)
    data = read(fpath)
    key = next(k for k in data["mats"] if data["mats"][k] and data["mats"][k][0])
    data["mats"][key][0][0] = "17"
    fpath.write_text(json.dumps(data))
    rc = main(["transport", "hat", "--category", str(spath),
               "--functor", str(fpath), "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_certify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "--name", "delta_bt", "--size", "4", "--seeds", "4",
            "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = read(a)
    assert payload["certificate"]["ok"]
    assert len(payload["certificate"]["entries"]) == 4


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """certify and theta print and write the same bytes under two
    PYTHONHASHSEED values, in fresh processes."""
    spath, fpath = _write_structure_and_functor(tmp_path)
    tpath = tmp_path / "T.json"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["transport", "hat", "--category", str(spath),
              "--functor", str(fpath), "--out", str(tpath)])
    commands = {
        "certify": ["certify", "--name", "cube", "--size", "2", "--seeds", "2",
                    "--out", "certify.json"],
        "theta": ["theta", "--category", str(spath), "--functor", str(tpath),
                  "--out", "theta.json"],
    }
    seen = {}
    for hash_seed in ("0", "1"):
        env = _env_with_src()
        env["PYTHONHASHSEED"] = hash_seed
        run_dir = tmp_path / f"hash_seed_{hash_seed}"
        run_dir.mkdir()
        for name, argv in commands.items():
            proc = subprocess.run(
                [sys.executable, "-m", "dkequiv.cli", *argv],
                capture_output=True, env=env, cwd=run_dir,
            )
            assert proc.returncode == 0, proc.stdout
            written = (run_dir / argv[-1]).read_bytes()
            seen.setdefault(name, set()).add((proc.stdout, proc.stderr, written))
    assert all(len(results) == 1 for results in seen.values())


def test_certify_corrupted_star_exits_2(tmp_path, capsys):
    main(["example", "fi_sharp", "--size", "2", "--out", str(tmp_path)])
    data = read(tmp_path / "fi_sharp_2.structure.json")
    star = data["star"]
    # redirect one non-identity star entry to an identity morphism
    idents = set(data["identities"])
    m = next(k for k, v in star.items() if int(k) not in idents)
    data["star"][m] = str(data["identities"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["certify", "--category", str(bad), "--seeds", "1",
               "--out", str(tmp_path / "cert.json")])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "assumption checks failed"
    assert [p["message"] for p in report["witness"]["structural"]] == [
        "star does not swap endpoints"]
    assert not (tmp_path / "cert.json").exists()


def test_certify_exits_2_when_a_certificate_fails(tmp_path, capsys, monkeypatch):
    # hat's second output, hat(tilde(hat f)) for the first functor, gets one
    # changed entry on a non-identity embedding, which breaks the counit's
    # naturality: certify writes the certificate, then exits 2 with the
    # failing entry as its witness
    from dkequiv import equivalence
    from dkequiv.exactlin import QMat
    from dkequiv.functors import AdditiveFunctor

    real_hat = equivalence.hat
    calls = []

    def corrupting_hat(km, g):
        out = real_hat(km, g)
        calls.append(g)
        if len(calls) != 2:
            return out
        s = km.structure
        key = next(m for m in sorted(s.m_class) if not s.cat.is_identity(m)
                   and out.mats[m].nrows and out.mats[m].ncols)
        m = out.mats[key]
        bump = QMat(m.nrows, m.ncols, [((0, 1),)] + [()] * (m.nrows - 1))
        return AdditiveFunctor(out.base, out.dims, {**out.mats, key: m + bump})

    monkeypatch.setattr(equivalence, "hat", corrupting_hat)
    out = tmp_path / "cert.json"
    capsys.readouterr()
    assert main(["certify", "--size", "4", "--seeds", "2", "--out", str(out)]) == 2
    entries = read(out)["certificate"]["entries"]
    assert json.loads(capsys.readouterr().out) == {
        "error": "certificate failed at seed0_0", "witness": entries[0]}
    assert [e["ok"] for e in entries] == [False, True]
    assert entries[0]["counit_natural"] is False


def test_theta_dump(tmp_path):
    spath, fpath = _write_structure_and_functor(tmp_path)
    tpath = tmp_path / "T.json"
    main(["transport", "hat", "--category", str(spath), "--functor", str(fpath),
          "--out", str(tpath)])
    out = tmp_path / "theta.json"
    rc = main(["theta", "--category", str(spath), "--functor", str(tpath),
               "--out", str(out)])
    assert rc == 0
    payload = read(out)
    assert set(payload) == {"0", "1", "2"}
    for entry in payload.values():
        n = len(entry["matrix"])
        for i in range(n):
            assert entry["matrix"][i][i] == "1"


def test_idem_command(tmp_path, capsys):
    p = tmp_path / "mats.json"
    p.write_text(json.dumps({"matrices": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
        [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    ]}))
    rc = main(["idem", "--input", str(p), "--out", str(tmp_path / "o.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rank_sum"] == 3
    # violating pair reported with its indices
    p.write_text(json.dumps({"matrices": [
        [["1", "0"], ["1", "0"]],
        [["1", "1"], ["0", "0"]],
    ]}))
    rc = main(["idem", "--input", str(p)])
    assert rc == 2
    msg = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert msg["witness"]["pair"] == [0, 1]


# -- malformed input: one exit code, one JSON object, also under python -O ----


def _edited(data, edit):
    data = json.loads(json.dumps(data))
    edit(data)
    return data


def _malformed_cases(tmp_path):
    """argv lists that must exit 3: every file is well-formed JSON holding a
    single fault that only the parsers or the argument checks can reject."""
    spath, fpath = _write_structure_and_functor(tmp_path)
    tpath = tmp_path / "T.json"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["transport", "hat", "--category", str(spath),
              "--functor", str(fpath), "--out", str(tpath)])
    functor, structure, additive = read(fpath), read(spath), read(tpath)
    key = next(k for k in sorted(functor["mats"]) if functor["mats"][k]
               and functor["mats"][k][0])
    delta3 = build_delta_bt(3)
    reducible = str(min(set(delta3.cat.morphisms()) - delta3.r_class))
    files = {
        "idem_empty": {"matrices": []},
        "idem_nokey": {},
        "idem_nonsquare": {"matrices": [[["1", "0"]]]},
        "idem_ragged": {"matrices": [[["1", "0"], ["0"]]]},
        "idem_div0": {"matrices": [[["1/0"]]]},
        "F_div0": _edited(functor, lambda d: d["mats"][key][0].__setitem__(0, "1/0")),
        "F_short": _edited(functor, lambda d: d["dims"].pop()),
        "F_negdim": _edited(functor, lambda d: d["dims"].__setitem__(0, -1)),
        "F_reducible": _edited(functor, lambda d: d["mats"].__setitem__(reducible, [])),
        "T_nomorphism": _edited(additive, lambda d: d["mats"].__setitem__(
            str(delta3.cat.n_morphisms), [])),
        "S_strids": _edited(structure, lambda d: d.__setitem__(
            "m_class", [str(m) for m in d["m_class"]])),
        "S_compx": _edited(structure, lambda d: d["comp"][0].__setitem__(0, "x")),
        "S_idshort": _edited(structure, lambda d: d["identities"].pop()),
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    out = str(tmp_path / "out.json")
    cases = [["idem", "--input", str(paths[n])] for n in files if n.startswith("idem")]
    cases += [["transport", "hat", "--category", str(spath), "--functor",
               str(paths[n]), "--out", out] for n in files if n.startswith("F_")]
    cases += [["transport", "tilde", "--category", str(spath), "--functor",
               str(paths[n]), "--out", out] for n in files if n.startswith("T_")]
    cases += [["check", str(paths[n])] for n in files if n.startswith("S_")]
    cases += [
        ["theta", "--category", str(spath), "--functor", str(tpath),
         "--object", "7", "--out", out],
        ["certify", "--dims-max", "-1", "--out", out],
        ["certify", "--seeds", "-1", "--out", out],
    ]
    # nesting too deep for the JSON decoder, once per reader of input files
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    cases += [
        ["idem", "--input", str(nested)],
        ["check", str(nested)],
        ["transport", "hat", "--category", str(nested), "--functor", str(fpath),
         "--out", out],
        ["transport", "tilde", "--category", str(spath), "--functor", str(nested),
         "--out", out],
        ["theta", "--category", str(spath), "--functor", str(nested), "--out", out],
        ["certify", "--category", str(nested), "--out", out],
        ["example", "par", "--base", str(nested), "--out", out],
    ]
    return cases


def test_malformed_inputs_exit_3(tmp_path, capsys):
    cases = _malformed_cases(tmp_path)
    capsys.readouterr()
    for argv in cases:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1, argv
        assert set(json.loads(lines[0])) == {"error", "witness"}
    assert not (tmp_path / "out.json").exists()


def test_malformed_inputs_exit_3_without_asserts(tmp_path):
    """The same cases under python -O, which strips every assert."""
    with contextlib.redirect_stdout(io.StringIO()):
        cases = _malformed_cases(tmp_path)
    script = (
        "import contextlib, io, json, sys\n"
        "from dkequiv.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = main(argv)\n"
        "    lines = out.getvalue().splitlines()\n"
        "    json.loads(lines[0])\n"
        "    print(rc, len(lines))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(cases)],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == ["3 1"] * len(cases)


def test_boolean_matrix_entries_exit_3(tmp_path, capsys):
    """JSON true and false are not the integers 1 and 0."""
    spath, fpath = _write_structure_and_functor(tmp_path)
    functor = read(fpath)
    key = next(k for k in sorted(functor["mats"]) if functor["mats"][k]
               and functor["mats"][k][0])
    bool_functor = tmp_path / "F_bool.json"
    bool_functor.write_text(json.dumps(
        _edited(functor, lambda d: d["mats"][key][0].__setitem__(0, True))))
    bool_idem = tmp_path / "idem_bool.json"
    bool_idem.write_text(json.dumps({"matrices": [[[True, False], [False, False]]]}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    for argv in (["idem", "--input", str(bool_idem), "--out", str(out)],
                 ["transport", "hat", "--category", str(spath),
                  "--functor", str(bool_functor), "--out", str(out)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1, argv
        assert "not an exact rational: True" in json.loads(lines[0])["error"]
    assert not out.exists()


def test_certify_zero_seeds_is_a_vacuous_pass(tmp_path, capsys):
    assert main(["certify", "--seeds", "0", "--out", str(tmp_path / "c.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "category": "delta_bt_3", "functors": 0, "ok": True
    }


def test_certify_tags_a_sizeless_builder_by_name(tmp_path, capsys):
    """certify tags its certificate as example tags its files: pt ignores
    its size, so its tag has none, and delta_bt keeps its size."""
    for name, size, tag in (("pt", "7", "pt"), ("delta_bt", "4", "delta_bt_4")):
        out = tmp_path / f"{name}.json"
        assert main(["certify", "--name", name, "--size", size, "--seeds", "1",
                     "--out", str(out)]) == 0
        assert read(out)["category"] == tag
        assert json.loads(capsys.readouterr().out)["category"] == tag


def test_every_option_is_exercised():
    """Each option string of every subcommand, argparse's own help aside,
    occurs in the tests or in scripts/compare_cli.sh."""
    root = Path(__file__).resolve().parents[1]
    text = "".join(p.read_text() for p in sorted(root.glob("tests/*.py")))
    text += (root / "scripts" / "compare_cli.sh").read_text()
    parser = make_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    unused = [
        (command, option)
        for command, p in sub.choices.items() for a in p._actions
        if not isinstance(a, argparse._HelpAction)
        for option in a.option_strings
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    ]
    assert unused == []


def test_theta_reports_failed_assumptions_like_transport(tmp_path, capsys):
    s = build_fi_sharp(2)
    ms = s.cat.isos() | {7, 8}
    cut = tmp_path / "cut78.json"
    cut.write_text(json.dumps(
        MRStructure(s.cat, ms, {k: s.star[k] for k in ms}).to_jsonable(),
        sort_keys=True, indent=2,
    ))
    # the functor file is never read: the structure fails first
    never = str(tmp_path / "absent.json")
    out = str(tmp_path / "out.json")
    assert main(["transport", "hat", "--category", str(cut), "--functor", never,
                 "--out", out]) == 2
    transported = json.loads(capsys.readouterr().out)
    assert main(["theta", "--category", str(cut), "--functor", never,
                 "--out", out]) == 2
    theta = json.loads(capsys.readouterr().out)
    assert theta == transported
    assert theta["witness"]["passed"] is False
    assert theta["witness"] == check_assumptions(
        MRStructure.from_jsonable(json.loads(cut.read_text()))).to_jsonable()


def test_certify_bimodule_law_failure_exits_2(tmp_path, capsys, monkeypatch):
    problems = [("identity", 0), ("left", 1, 2, 3)]
    monkeypatch.setattr(KernelModule, "validate", lambda self: problems)
    with pytest.raises(AssertionError, match="bimodule law failures"):
        build_kernel_module(build_delta_bt(3), validate=True)
    assert main(["certify", "--seeds", "1", "--out", str(tmp_path / "c.json")]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "bimodule law failures", "witness": [["identity", 0], ["left", 1, 2, 3]]
    }
    assert not (tmp_path / "c.json").exists()


def test_certify_bimodule_law_failure_exits_2_without_asserts(tmp_path):
    script = (
        "import sys\n"
        "from dkequiv.builders import build_delta_bt\n"
        "from dkequiv.cli import main\n"
        "from dkequiv.equivalence import KernelModule, build_kernel_module\n"
        "KernelModule.validate = lambda self: [('identity', 0)]\n"
        "try:\n"
        "    build_kernel_module(build_delta_bt(3), validate=True)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "sys.exit(main(['certify', '--seeds', '1', '--out', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(tmp_path / "c.json")],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    first, second = proc.stdout.splitlines()
    assert first == "bimodule law failures: [('identity', 0)]"
    assert json.loads(second)["witness"] == [["identity", 0]]



@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_exponent_entries_exit_3(tmp_path, flags):
    """Fraction("1e2000000") builds a 6.6M-bit integer, and a longer
    exponent runs for minutes or exhausts the memory, before any check.
    So an entry with an exponent is malformed input, rejected before it is
    parsed and named in the error, by idem, transport and theta alike,
    also when python -O strips asserts."""
    spath, fpath = _write_structure_and_functor(tmp_path)
    tpath = tmp_path / "T.json"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["transport", "hat", "--category", str(spath),
              "--functor", str(fpath), "--out", str(tpath)])
    entry = "1e2000000"
    files = {"idem": {"matrices": [[[entry, "0"], ["0", "1"]]]}}
    for name, path in (("F", fpath), ("T", tpath)):
        data = read(path)
        key = next(k for k in sorted(data["mats"]) if data["mats"][k]
                   and data["mats"][k][0])
        files[name] = _edited(data, lambda d: d["mats"][key][0].__setitem__(0, entry))
    for name, data in files.items():
        (tmp_path / f"{name}_exp.json").write_text(json.dumps(data))
    out = str(tmp_path / "out.json")
    for argv in (
        ["idem", "--input", str(tmp_path / "idem_exp.json")],
        ["transport", "hat", "--category", str(spath), "--functor",
         str(tmp_path / "F_exp.json"), "--out", out],
        ["transport", "tilde", "--category", str(spath), "--functor",
         str(tmp_path / "T_exp.json"), "--out", out],
        ["theta", "--category", str(spath), "--functor",
         str(tmp_path / "T_exp.json"), "--out", out],
    ):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dkequiv.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (3, ""), argv
        assert f"matrix entry '{entry}': exponents are not accepted" in (
            json.loads(proc.stdout)["error"]), argv
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_unwritable_out_exits_3(tmp_path, flags):
    """An --out that cannot be written, a directory where a file goes or a
    file where a directory goes, is malformed input: one error object,
    exit 3 and no traceback, also when python -O strips asserts."""
    spath = tmp_path / "delta_bt_3.json"
    spath.write_text(json.dumps(build_delta_bt(3).to_jsonable(), sort_keys=True, indent=2))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv, target in (
        (["check", str(spath), "--out", str(tmp_path)], tmp_path),
        (["certify", "--seeds", "1", "--out", str(tmp_path)], tmp_path),
        (["example", "fi_sharp", "--size", "2", "--out", str(a_file)],
         a_file / "fi_sharp_2.structure.json"),
    ):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dkequiv.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert (proc.returncode, proc.stderr) == (3, ""), argv
        out = json.loads(proc.stdout)
        assert out["error"].startswith(f"cannot write {target}: "), argv
        assert out["witness"] is None

def test_example_par_base_not_a_category_exits_3(tmp_path, capsys):
    inp = build_fi_input(2)
    cat = inp.cat
    f, g = next((f, g) for f in cat.morphisms() for g in cat.morphisms()
                if f != g and (cat.dom[f], cat.cod[f]) == (cat.dom[g], cat.cod[g]))
    data = inp.to_jsonable()
    data["comp"][cat.identity(cat.cod[f])][f] = g
    base = tmp_path / "broken.base.json"
    base.write_text(json.dumps(data))
    assert main(["example", "par", "--base", str(base), "--out", str(tmp_path)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "base category unsuitable"
    assert out["witness"][0]["problem"] == "base is not a category"
    assert {"message": "id o f != f", "f": f, "label": cat.mor_labels[f]} in (
        out["witness"][0]["violations"])


def test_structure_with_broken_tables_exits_2_everywhere(tmp_path, capsys):
    """A composite left undefined on a composable pair is a structural
    failure for every command that loads the structure, not a crash."""
    spath, fpath = _write_structure_and_functor(tmp_path)
    data = read(spath)
    data["comp"][0][0] = -1
    bad = tmp_path / "broken.structure.json"
    bad.write_text(json.dumps(data))
    out = str(tmp_path / "out.json")
    capsys.readouterr()
    # each command checks the category's laws first, so all report them
    outputs = []
    for argv in (
        ["check", str(bad)],
        ["certify", "--category", str(bad), "--out", out],
        ["transport", "hat", "--category", str(bad), "--functor", str(fpath),
         "--out", out],
    ):
        assert main(argv) == 2, argv
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[1:] == outputs[:1] * 2
    assert outputs[0]["error"] == "category laws violated"
    assert {"message": "comp defined iff endpoints match violated",
            "g": 0, "f": 0} in outputs[0]["witness"]["structural"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_associative_table_exits_2_everywhere(tmp_path, flags):
    """certify, transport and theta check the category laws first, as check
    does.  So a table that breaks only associativity gives every command
    check's category-law witness and exit 2, where a later stage that
    presumes the laws raised an error, also under python -O."""
    data = build_fi_sharp(2).to_jsonable()
    assert data["comp"][6][12] == 13
    data["comp"][6][12] = 19
    bad = tmp_path / "nonassoc.json"
    bad.write_text(json.dumps(data))
    # the functor file is never read: the structure fails first
    never = str(tmp_path / "absent.json")
    out = tmp_path / "out.json"
    outputs = []
    for argv in (
        ["check", str(bad)],
        ["certify", "--category", str(bad), "--seeds", "1", "--out", str(out)],
        ["transport", "hat", "--category", str(bad), "--functor", never,
         "--out", str(out)],
        ["transport", "tilde", "--category", str(bad), "--functor", never,
         "--out", str(out)],
        ["theta", "--category", str(bad), "--functor", never, "--out", str(out)],
    ):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dkequiv.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert (proc.returncode, proc.stderr) == (2, ""), argv
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1
    report = json.loads(outputs[0])
    assert report["error"] == "category laws violated"
    assert report["witness"]["structural"] == []
    assert {"f": 12, "g": 6, "h": 12, "message": "associativity violated"} in (
        report["witness"]["law"])
    assert not out.exists()
