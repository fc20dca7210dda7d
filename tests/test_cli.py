"""Command-line interface: dispatch, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from robinlab.cli import main, to_json


@pytest.fixture()
def ball_json(tmp_path):
    p = tmp_path / "ball.json"
    p.write_text(json.dumps({"kind": "ball", "n": 2, "radius": 1.0}))
    return str(p)


@pytest.fixture()
def family_json(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps({"kind": "translation", "n": 2,
                             "direction": [1.0, 0.0], "rho": 0.5}))
    return str(p)


@pytest.fixture()
def gens_json(tmp_path):
    p = tmp_path / "e21.json"
    p.write_text(json.dumps({"matrices": [[["0", "0"], ["1", "0"]],
                                          ]}))
    return str(p)


def test_to_json_formats():
    assert to_json({"a": 1.5, "b": [1, 2]}) == '{"a":1.5,"b":[1,2]}'
    assert to_json(0.1) == "0.10000000000000001"
    assert to_json(complex(1, -2)) == '{"re":1,"im":-2}'


def test_green_subcommand(ball_json, tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["green", "--domain", ball_json, "--grid", "16",
                 "--pole", "0,0,0,0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["lambda"] + 1.0) < 1e-4
    assert payload["grid"]["nodes_per_axis"] == 16
    assert payload["pole"] == [0, 0, 0, 0]
    assert payload["residual"] < 1e-8


def test_green_determinism(ball_json, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["green", "--domain", ball_json, "--grid", "16",
                     "--pole", "0.25,0,0,0", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_torus_from_tuple(capsys):
    assert main(["torus", "from-tuple", "1", "1", "0", "1", "1", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == "num:[1,1];den:[1,0,1]"
    assert payload["b"] == "num:[1,-1];den:[1,0,1]"


def test_torus_foliation(capsys):
    assert main(["torus", "foliation", "1", "1", "0", "1", "1", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == "1"
    assert payload["eta"] == "num:[-2];den:[-1,1]"


# full output bytes for three tuples with unequal, signed entries
TORUS_BYTES = [
    (("from-tuple", (3, -2, 5, 7, 4, 3)),
     '{"tuple":[3,-2,5,7,4,3],"a":"num:[253/392,1];den:[481/784,10/7,1'
     ']","b":"num:[93/196,3/14];den:[481/784,10/7,1]"}'),
    (("foliation", (3, -2, 5, 7, 4, 3)),
     '{"tuple":[3,-2,5,7,4,3],"A":"num:[253/84,14/3];den:[31/14,1]","B'
     '":"num:[-481/168,-20/3,-14/3];den:[31/14,1]","C":"num:[205/42];d'
     'en:[31/14,1]","eta":"num:[-205/147];den:[31/14,1]","d":"1/28","l'
     '1_dir":[3,-2],"l2_dir":["num:[5,7];den:[1]",7],"subalgebra_gens"'
     ':[["num:[9];den:[1]","num:[-6];den:[1]","num:[0];den:[1]","num:['
     '0];den:[1]"],["num:[0];den:[1]","num:[0];den:[1]","num:[20,28];d'
     'en:[1]","num:[28];den:[1]"],["num:[372,168];den:[1]","num:[0];de'
     'n:[1]","num:[506,784];den:[1]","num:[820];den:[1]"]]}'),
    (("from-tuple", (-7, 5, -3, 4, 2, 9)),
     '{"tuple":[-7,5,-3,4,2,9],"a":"num:[-2883/64,1];den:[4005/64,-3/2'
     ',1]","b":"num:[-117/32,-45/8];den:[4005/64,-3/2,1]"}'),
    (("foliation", (-7, 5, -3, 4, 2, 9)),
     '{"tuple":[-7,5,-3,4,2,9],"A":"num:[961/120,-8/45];den:[13/20,1]"'
     ',"B":"num:[89/8,-4/15,8/45];den:[13/20,1]","C":"num:[-2089/360];'
     'den:[13/20,1]","eta":"num:[-2089/3600];den:[13/20,1]","d":"1/8",'
     '"l1_dir":[-7,5],"l2_dir":["num:[-3,4];den:[1]",4],"subalgebra_ge'
     'ns":[["num:[-63];den:[1]","num:[45];den:[1]","num:[0];den:[1]","'
     'num:[0];den:[1]"],["num:[0];den:[1]","num:[0];den:[1]","num:[-6,'
     '8];den:[1]","num:[8];den:[1]"],["num:[-234,-360];den:[1]","num:['
     '0];den:[1]","num:[-2883,64];den:[1]","num:[2089];den:[1]"]]}'),
    (("from-tuple", (11, -13, 0, 1, 17, 19)),
     '{"tuple":[11,-13,0,1,17,19],"a":"num:[-51623/289,1];den:[43681/2'
     '89,0,1]","b":"num:[209/17,247/17];den:[43681/289,0,1]"}'),
    (("foliation", (11, -13, 0, 1, 17, 19)),
     '{"tuple":[11,-13,0,1,17,19],"A":"num:[-209/17,17/247];den:[11/13'
     ',1]","B":"num:[-2299/221,0,-17/247];den:[11/13,1]","C":"num:[612'
     '98/4199];den:[11/13,1]","eta":"num:[-61298/3211];den:[11/13,1]",'
     '"d":"1/17","l1_dir":[11,-13],"l2_dir":["num:[0,1];den:[1]",1],"s'
     'ubalgebra_gens":[["num:[209];den:[1]","num:[-247];den:[1]","num:'
     '[0];den:[1]","num:[0];den:[1]"],["num:[0];den:[1]","num:[0];den:'
     '[1]","num:[0,17];den:[1]","num:[17];den:[1]"],["num:[3553,4199];'
     'den:[1]","num:[0];den:[1]","num:[-51623,289];den:[1]","num:[6129'
     '8];den:[1]"]]}'),

]


@pytest.mark.parametrize("argv,expected", TORUS_BYTES,
                         ids=[f"{cmd}-{'_'.join(map(str, t))}"
                              for (cmd, t), _ in TORUS_BYTES])
def test_torus_output_bytes(argv, expected, capsys):
    cmd, t = argv
    assert main(["torus", cmd, *map(str, t)]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_torus_classify(capsys):
    assert main(["torus", "classify", "--a", "num:[1,2];den:[2]",
                 "--b", "num:[0];den:[1]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "cannot_occur"


def test_torus_validation_exit_code(capsys):
    assert main(["torus", "from-tuple", "2", "4", "0", "1", "1", "1"]) == 2


def test_lie_closure(gens_json, capsys):
    assert main(["lie", "closure", "--n", "2", "--base", "flag",
                 "--gens", gens_json]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["composition"] == [2]
    assert payload["dim"] == 4


def test_lie_closure_n3(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps([[["0", "0"], ["0", "0"], ["0", "0"]],
                             ]))
    # 3x3 zero generator: closure is the base itself
    rows3 = [[["0", "0"]] * 3 for _ in range(3)]
    p.write_text(json.dumps([rows3]))
    assert main(["lie", "closure", "--n", "3", "--gens", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["composition"] == [1, 1, 1]


# full output bytes of `lie closure` on dense generators (a nonzero lower
# first-column entry escapes the Hopf base) and of `lie hopf`
LIE_CLOSURE_BYTES = [
    (3, "flag", [[["1", "2"], "-3", "1/2"], [["2", "-1"], ["0", "1"], "4"],
                 ["0", "0", "5"]],
     '{"n":3,"base":"flag","dim":7,"composition":[2,1]}'),
    (4, "flag", [[["1", "2"], "-3", "1/2", "2"], ["0", ["0", "1"], "4", ["1", "1"]],
                 ["0", ["-2/3", "1"], "5", "-1"], ["0", "0", "0", ["3", "-1/2"]]],
     '{"n":4,"base":"flag","dim":11,"composition":[1,2,1]}'),
    (3, "hopf", [[["2", "1"], "1", "-1/3"], ["0", "3", ["1", "2"]],
                 ["0", "1", "1"]],
     '{"n":3,"base":"hopf","dim":7}'),
    (3, "hopf", [["0", "1", "2"], ["0", "0", "1"], [["1", "-1"], "0", "0"]],
     '{"n":3,"base":"hopf","dim":9}'),
]


@pytest.mark.parametrize("n,base,matrix,expected", LIE_CLOSURE_BYTES,
                         ids=["flag3", "flag4", "hopf3", "hopf3-escape"])
def test_lie_closure_output_bytes(n, base, matrix, expected, tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps([matrix]))
    assert main(["lie", "closure", "--n", str(n), "--base", base,
                 "--gens", str(p)]) == 0
    assert capsys.readouterr().out == expected + "\n"


LIE_HOPF_BYTES = {
    2: '{"n":2,"dim_x0":3,"dim_escape":4,"verdict":"dim fixes the fibration: '
       'closure with E_11 has complex dimension 3 = 1 + n(n-1) = 3, so '
       'invariant domains fiber over P^1 with one-dimensional torus fibers; a '
       'nonzero c_j (j >= 2) escapes to all of M_2(C)"}',
    3: '{"n":3,"dim_x0":7,"dim_escape":9,"verdict":"dim fixes the fibration: '
       'closure with E_11 has complex dimension 7 = 1 + n(n-1) = 7, so '
       'invariant domains fiber over P^2 with one-dimensional torus fibers; a '
       'nonzero c_j (j >= 2) escapes to all of M_3(C)"}',
    4: '{"n":4,"dim_x0":13,"dim_escape":16,"verdict":"dim fixes the fibration: '
       'closure with E_11 has complex dimension 13 = 1 + n(n-1) = 13, so '
       'invariant domains fiber over P^3 with one-dimensional torus fibers; a '
       'nonzero c_j (j >= 2) escapes to all of M_4(C)"}',
}


@pytest.mark.parametrize("n", sorted(LIE_HOPF_BYTES))
def test_lie_hopf_output_bytes(n, capsys):
    assert main(["lie", "hopf", "--n", str(n)]) == 0
    assert capsys.readouterr().out == LIE_HOPF_BYTES[n] + "\n"


# full output bytes of `lie spanning`, taken before its generators were
# shared with criterion 9: the seeds and the drawn matrices must not move
LIE_SPANNING_BYTES = [
    (["--grassmann", "2", "1"], '{"p":2,"q":1,"rank":2,"full":true}'),
    (["--grassmann", "3", "2", "--K", "1000"],
     '{"p":3,"q":2,"rank":6,"full":true}'),
    (["--flag", "3"], '{"n":3,"rank":1,"max_possible":3,"spanning":false}'),
    (["--flag", "4"], '{"n":4,"rank":1,"max_possible":6,"spanning":false}'),
]


@pytest.mark.parametrize("argv,expected", LIE_SPANNING_BYTES,
                         ids=["grassmann21", "grassmann32-K", "flag3", "flag4"])
def test_lie_spanning_output_bytes(argv, expected, capsys):
    assert main(["lie", "spanning"] + argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_lie_spanning_grassmann(capsys):
    assert main(["lie", "spanning", "--grassmann", "2", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2 and payload["full"]


def test_lie_spanning_flag(capsys):
    assert main(["lie", "spanning", "--flag", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spanning"] is False


def test_lie_hopf(capsys):
    assert main(["lie", "hopf", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_x0"] == 3 and payload["dim_escape"] == 4


def test_lie_tangent(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps([[["0", "0"], ["0", "0"], ["0", "0"]],
                             [["2", "0"], ["0", "0"], ["0", "0"]],
                             [["3", "0"], ["5", "0"], ["0", "0"]]]))
    assert main(["lie", "tangent", "--matrix", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tangent"] == [["2", "0"], ["3", "0"], ["5", "0"]]


def test_levi_subcommand(tmp_path, capsys):
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"kind": "euclidean", "n": 2}))
    domain = tmp_path / "dom.json"
    domain.write_text(json.dumps({"kind": "ball", "n": 2, "radius": 1.0}))
    assert main(["levi", "--metric", str(metric), "--domain", str(domain),
                 "--t", "0,0", "--z", "1,0,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k2"] == 0.0 and payload["W"] == 0.0


def test_missing_file_exit_code(capsys):
    assert main(["green", "--domain", "/nonexistent.json",
                 "--pole", "0,0,0,0"]) == 2


def test_variation_subcommand(family_json, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["variation", "--family", family_json, "--t0", "0,0",
                 "--grid", "20", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["lhs"] + 2.0) < 0.3
    assert payload["rhs_cross"] == 0.0


def test_console_entry_point(ball_json):
    proc = subprocess.run(
        [sys.executable, "-m", "robinlab.cli", "green", "--domain", ball_json,
         "--grid", "16", "--pole", "0,0,0,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda"] == pytest.approx(-1.0, abs=1e-4)
