"""Golden outputs: SHA-256 digests of the CLI's stdout and written files.

The digests were recorded once and are pinned by hand; the test never
rewrites them.  A change that alters any byte of these outputs (a cut
value, a code, a report line, a DOT node) fails here.  The sequence runs
in a temporary directory with relative file names, because headers print
the paths they were given; the Gray subbase file is written there first.
"""

import hashlib

from subbases.cli import run

SEQUENCE = (
    ("build", ["build", "--space", "square", "--resolution", "1/16",
               "--pairs", "8", "--strong", "--seed", "3",
               "--out", "built.json"], ["built.json"]),
    ("check-strong", ["check-strong", "--subbase", "built.json",
                      "--depth", "6", "--delta", "1/8",
                      "--json", "report.json"], ["report.json"]),
    ("kslice", ["kslice", "--subbase", "built.json", "--depth", "6",
                "--dot", "k.dot"], ["k.dot"]),
    ("check-cusl", ["check-cusl", "--subbase", "built.json", "--depth", "6",
                    "--permutations", "3", "--seed", "1"], []),
    ("encode", ["encode", "--subbase", "built.json", "--point", "1/4,1/2",
                "--depth", "8"], []),
    ("demo-gray", ["demo", "gray"], []),
    ("encode-gray", ["encode", "--subbase", "gray10.json", "--point", "1/3",
                     "--depth", "10"], []),
    ("demo-duplication", ["demo", "duplication"], []),
    ("demo-compactification", ["demo", "compactification"], []),
    ("build-criterion-6", ["build", "--space", "square", "--resolution", "1/32",
                           "--pairs", "12", "--strong", "--seed", "42",
                           "--out", "built42.json"], ["built42.json"]),
    ("check-strong-depth-10", ["check-strong", "--subbase", "built42.json",
                               "--depth", "10", "--delta", "1/16",
                               "--json", "r10.json"], ["r10.json"]),
    ("build-1-128", ["build", "--space", "square", "--resolution", "1/128",
                     "--pairs", "4", "--strong", "--seed", "0",
                     "--out", "b128.json"], ["b128.json"]),
    ("kslice-gray-9", ["kslice", "--subbase", "gray10.json", "--space",
                       "interval", "--resolution", "1/4096", "--depth", "9",
                       "--dot", "k9.dot"], ["k9.dot"]),
)

GOLDEN = {
    "build": (0, "c6c7fd3b2a586c024ec756f5d71c638d113b4ccd58d1a77aa05f9c1764c67e6d",
              {"built.json": "a69427b7144d5f9a15ba905a33b30069a455b61e0904da43c73c850e42c0e62f"}),
    "check-strong": (0, "95596dd92ff2c0fdbb4d53a7206568e175f35b3555f42005bd7fad2c6219f41d",
                     {"report.json": "e5449267925a3b1950692865ccbc889565d73c60ee872a083bcdeb26df992328"}),
    "kslice": (0, "53276d9120bde48301b8fdcd29d5e94cb81137ab92c4d646d26fad333c8c9909",
               {"k.dot": "28e3f9311d2f06bb5efdc415a49ec3fecea3cb7651a4ea9fb8a5f0639d6f8ed2"}),
    "check-cusl": (0, "87c1309eb225f822e315c95d3d5bbed81967404a07d1de00437a0503afb16931", {}),
    "encode": (0, "6ddb51c31c62367956a68751bff12e19758aa1057f5af5d692a5a6a55e7919f5", {}),
    "demo-gray": (0, "457c5d83a0c12a6446d273ae6e08aabe0e25b25322b7f1a3633c905236c5ec88", {}),
    "encode-gray": (0, "0b195d4e9e93cc0043f7826a2e93efd41c23b51edab366817352b08feb1a9e0a", {}),
    "demo-duplication": (1, "3b7640aeebe60d8572f959ad87fe2476aefca9dc1ec84abc8c254b790e2541cd", {}),
    "demo-compactification": (1, "a74d865b1e9919aed956b00c3ebeb92b60e3c26945e633504750a053a137c57d", {}),
    "build-criterion-6": (0, "19398c6ecebb63db7674bcbecd431dd4e1323012f4e0b487d5f0eb5b21ef0871",
                          {"built42.json": "f0acb593f7c60b19f1db269f3d310665b810b9dfb19b070a03cd457c7bfcffd2"}),
    "check-strong-depth-10": (0, "7ad599a835f0cf6a2fb56eb8b0eff7e75a51e21225f6a7fb0dc722a1967edc48",
                              {"r10.json": "6d70d5f21d7f612faec6627c14a8432aaa72864831874befe86e447fe02d7722"}),
    "build-1-128": (0, "b5e8476665e9960c7cbc0b002547f68d00dca2cd4e52ad1520f2105fe4d40311",
                    {"b128.json": "0d3d061e7d1991008681575ebbf6cecb1e4bafb2698aadbb617a74961dcef6b7"}),
    "kslice-gray-9": (0, "027445a39ed7e441fee23ff758717d515d5036729a28cb4bdca36d5a2eeb44d8",
                      {"k9.dot": "0bbb54c08b9b3be8f2b49ae7a3050f92f928dc9b26a7c939ee165435e3803c72"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gray10.json").write_text('{"kind": "gray", "pairs": 10}\n')
    observed = {}
    for name, argv, files in SEQUENCE:
        code = run(argv)
        stdout = _sha(capsys.readouterr().out.encode())
        observed[name] = (code, stdout, {f: _sha((tmp_path / f).read_bytes())
                                         for f in files})
    assert observed == GOLDEN
