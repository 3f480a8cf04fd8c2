"""Golden digests of the command line: sha256 of (exit code, stdout) for
every command on four fixtures, in each mode a command accepts and in both
output formats.  A change that keeps the output byte for byte keeps every
digest.  ``python tests/test_golden.py`` prints the current digests as JSON,
for review of an intended output change.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from gkmcalc.cli import main

FIXTURES = ("cp2", "square", "hirzebruch", "cpn:3")
MODES = ("ktheory", "cohomology")
PI = {"cp2": "0,1", "square": "1,1", "hirzebruch": "0,1", "cpn:3": "0,0,1"}


def cases(fixture):
    """Every argv recorded for one fixture."""
    runs = [["graph"], ["gt"], ["verify", "--level", "full"]]
    runs += [["kirwan", "--pi", PI[fixture]],
             ["kirwan", "--pi", PI[fixture], "--class", "pd:1"]]
    for mode in MODES:
        m = ["--mode", mode]
        runs += [["check", "--class", "tau:1"] + m, ["check", "--class", "pd:2"] + m,
                 ["basis", "--normalization", "canonical"] + m,
                 ["basis", "--normalization", "point"] + m,
                 ["pd"] + m, ["structure"] + m]
        for klass in ("point:1", "gt:1", "sample"):
            runs.append(["index", "--class", klass] + m)
        for klass in ("one", "tau:1", "pd:1"):
            runs.append(["index", "--class", klass] + m)
            # "3" is the top vertex of the four-vertex fixtures and past the
            # end of cp2's three; "-1" is no position and is refused
            for vertex in ("1", "2", "3", "-1"):
                runs.append(["local-index", "--class", klass, "--vertex", vertex] + m)
    return [r[:1] + ["--fixture", fixture, "--format", fmt] + r[1:]
            for r in runs for fmt in ("text", "json")]


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


def digests(fixture):
    return {" ".join(argv): digest(argv) for argv in cases(fixture)}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_output_digests(fixture):
    assert digests(fixture) == GOLDEN[fixture]


GOLDEN = {
    'cp2': {
        'basis --fixture cp2 --format json --normalization canonical --mode cohomology':
            '0de76f65f990920ef8636a594d048f6dacf4b14f20c3c27a28d7f45f27389d66',
        'basis --fixture cp2 --format json --normalization canonical --mode ktheory':
            '9850dc34c90e12ec1508e06742bdd9c7f6711a125c03b1b54ed077857f8e3063',
        'basis --fixture cp2 --format json --normalization point --mode cohomology':
            '0de76f65f990920ef8636a594d048f6dacf4b14f20c3c27a28d7f45f27389d66',
        'basis --fixture cp2 --format json --normalization point --mode ktheory':
            '51308b46f20c272452a86e938da8e945ac495ae7ea169001d2e316929403836e',
        'basis --fixture cp2 --format text --normalization canonical --mode cohomology':
            '4134c083609fc78013cb98bd977c5858322a986a48abb06cd55f09368918e5ca',
        'basis --fixture cp2 --format text --normalization canonical --mode ktheory':
            '470aae16805e8be35fc8e56b162d08bd84436d0640f98b3b13fe01f4e97a60c2',
        'basis --fixture cp2 --format text --normalization point --mode cohomology':
            '4134c083609fc78013cb98bd977c5858322a986a48abb06cd55f09368918e5ca',
        'basis --fixture cp2 --format text --normalization point --mode ktheory':
            '42786b63492ee17b46de4b1867d7b5e43fb1873929346f3873d00b9705cba0aa',
        'check --fixture cp2 --format json --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format json --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format json --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format json --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format text --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format text --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format text --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cp2 --format text --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'graph --fixture cp2 --format json':
            '8dfc5ba40eac1d14017f11b75bf76cdd9ab2a84d7f844ed4cb6ad73f56acc9cc',
        'graph --fixture cp2 --format text':
            'a1bc9716082ece36118fb4b260d994c08300194352818b2350c4b329fbdfd808',
        'gt --fixture cp2 --format json':
            '0de76f65f990920ef8636a594d048f6dacf4b14f20c3c27a28d7f45f27389d66',
        'gt --fixture cp2 --format text':
            '8e1852ae056ab0789384654f74b075d2f9e009bcdf46a82f6856880b067de0ec',
        'index --fixture cp2 --format json --class gt:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cp2 --format json --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format json --class one --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cp2 --format json --class one --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture cp2 --format json --class pd:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cp2 --format json --class pd:1 --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture cp2 --format json --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format json --class point:1 --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cp2 --format json --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format json --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture cp2 --format json --class tau:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cp2 --format json --class tau:1 --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture cp2 --format text --class gt:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cp2 --format text --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format text --class one --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cp2 --format text --class one --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture cp2 --format text --class pd:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cp2 --format text --class pd:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture cp2 --format text --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format text --class point:1 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cp2 --format text --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cp2 --format text --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture cp2 --format text --class tau:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cp2 --format text --class tau:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'kirwan --fixture cp2 --format json --pi 0,1':
            '88dfb44206a7c57286eda90f569d2439a0b46af1ac2f25c5c1132fed4c8fae8c',
        'kirwan --fixture cp2 --format json --pi 0,1 --class pd:1':
            '979bd2f2fd427863b3cbe533c4eff240fff621b1151a97aac664f387a779aa78',
        'kirwan --fixture cp2 --format text --pi 0,1':
            '64b8dc18c2573f6a36d2191b3685e7c75c9b0957a13d9b646a51af500e784b43',
        'kirwan --fixture cp2 --format text --pi 0,1 --class pd:1':
            '2a4ede8d2a5197dc8a2b28e7dfc383f560af27417c9fef3ba224e409d2af7fb8',
        'local-index --fixture cp2 --format json --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class one --vertex 1 --mode cohomology':
            '2b3f2b6ce61f584f1dc1b1d94dd38c0fc3d7c3669bd68e9b2357fdabb4c331d2',
        'local-index --fixture cp2 --format json --class one --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture cp2 --format json --class one --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cp2 --format json --class one --vertex 2 --mode ktheory':
            '18b0b773cd08734102b738b3d9c55c7cffb56e720898f1420f9f97e395dccc33',
        'local-index --fixture cp2 --format json --class one --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class one --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 1 --mode cohomology':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 2 --mode ktheory':
            '18b0b773cd08734102b738b3d9c55c7cffb56e720898f1420f9f97e395dccc33',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class pd:1 --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 1 --mode cohomology':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 2 --mode ktheory':
            '18b0b773cd08734102b738b3d9c55c7cffb56e720898f1420f9f97e395dccc33',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format json --class tau:1 --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class one --vertex 1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cp2 --format text --class one --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class one --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cp2 --format text --class one --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class one --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class one --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class pd:1 --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 3 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cp2 --format text --class tau:1 --vertex 3 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'pd --fixture cp2 --format json --mode cohomology':
            '0de76f65f990920ef8636a594d048f6dacf4b14f20c3c27a28d7f45f27389d66',
        'pd --fixture cp2 --format json --mode ktheory':
            '9850dc34c90e12ec1508e06742bdd9c7f6711a125c03b1b54ed077857f8e3063',
        'pd --fixture cp2 --format text --mode cohomology':
            '356dca03347c9ea7529d4b2aecfef07ebad4055cdd290058ad0b3a37d4fe23da',
        'pd --fixture cp2 --format text --mode ktheory':
            'be6212f9f67fa5ddb97e479f78a293b0e49b10496c659ce2f1229239b0d7cf92',
        'structure --fixture cp2 --format json --mode cohomology':
            '36af9791b0b7bdb663e7b41c9f0273c4cb4828875251183e190a34f99c2724e2',
        'structure --fixture cp2 --format json --mode ktheory':
            '484aa1aa00cb0e78eb6e9ec6ee43abc1230ea9562e85dc5db356f15f6710ed39',
        'structure --fixture cp2 --format text --mode cohomology':
            '01ac52b67d50d318ea10b15fe5bbfc17ff5c65fbea3de9c581adfb1422fdfea8',
        'structure --fixture cp2 --format text --mode ktheory':
            '1cb5cb997aadb03e16ab2e05ba653e976cc0aa085d561b613f71b103e152615b',
        'verify --fixture cp2 --format json --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
        'verify --fixture cp2 --format text --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
    },
    'cpn:3': {
        'basis --fixture cpn:3 --format json --normalization canonical --mode cohomology':
            'f91a95c7e0a0624f14cffeaf0033e2055c2f714c6f8f54b63a77c1141acdef04',
        'basis --fixture cpn:3 --format json --normalization canonical --mode ktheory':
            'fca0a14d0548beb06bd3235b5b1975f39ecd31499af945d856df69de650e32ad',
        'basis --fixture cpn:3 --format json --normalization point --mode cohomology':
            'f91a95c7e0a0624f14cffeaf0033e2055c2f714c6f8f54b63a77c1141acdef04',
        'basis --fixture cpn:3 --format json --normalization point --mode ktheory':
            'a5eea1f6c400a6547420f15883155d762d4fa616ec65a22edc0b2c26bc684176',
        'basis --fixture cpn:3 --format text --normalization canonical --mode cohomology':
            '6017e1bfa70cc584df94f1c37e31d13bd6584f44247384c373ec449dd5a3e069',
        'basis --fixture cpn:3 --format text --normalization canonical --mode ktheory':
            'cb40b4a179ea2239a13d47b896d2606863df7b693c5a6f89cf3af75f7e774f87',
        'basis --fixture cpn:3 --format text --normalization point --mode cohomology':
            '6017e1bfa70cc584df94f1c37e31d13bd6584f44247384c373ec449dd5a3e069',
        'basis --fixture cpn:3 --format text --normalization point --mode ktheory':
            'f195b3d7533257fcccf5eb2718deae18ff1194c79483f3c5ea91d6ca616c4ed3',
        'check --fixture cpn:3 --format json --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format json --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format json --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format json --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format text --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format text --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format text --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture cpn:3 --format text --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'graph --fixture cpn:3 --format json':
            'd1ea56884b813e0ec98f7690e578f6e4fe948fd50d5e9c9ba542150374f1fb8f',
        'graph --fixture cpn:3 --format text':
            '2367d816740210ac62fc8b05037905b2b25055289c880f20c132bba3c60a87e1',
        'gt --fixture cpn:3 --format json':
            'f91a95c7e0a0624f14cffeaf0033e2055c2f714c6f8f54b63a77c1141acdef04',
        'gt --fixture cpn:3 --format text':
            '39434993878b0fd91d0cba78ea5ee6fb415ea16c6d7310784fc82d2fcc28a65d',
        'index --fixture cpn:3 --format json --class gt:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cpn:3 --format json --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format json --class one --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cpn:3 --format json --class one --mode ktheory':
            '757c0b8ea53b32429486ddb982b131d9bc7c5aa585a6e7296c60817293abc767',
        'index --fixture cpn:3 --format json --class pd:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cpn:3 --format json --class pd:1 --mode ktheory':
            '757c0b8ea53b32429486ddb982b131d9bc7c5aa585a6e7296c60817293abc767',
        'index --fixture cpn:3 --format json --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format json --class point:1 --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cpn:3 --format json --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format json --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture cpn:3 --format json --class tau:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture cpn:3 --format json --class tau:1 --mode ktheory':
            '757c0b8ea53b32429486ddb982b131d9bc7c5aa585a6e7296c60817293abc767',
        'index --fixture cpn:3 --format text --class gt:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cpn:3 --format text --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format text --class one --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cpn:3 --format text --class one --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture cpn:3 --format text --class pd:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cpn:3 --format text --class pd:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture cpn:3 --format text --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format text --class point:1 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cpn:3 --format text --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture cpn:3 --format text --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture cpn:3 --format text --class tau:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture cpn:3 --format text --class tau:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'kirwan --fixture cpn:3 --format json --pi 0,0,1':
            'f7174f43c340f8d0d6b744e6f2ee31def2b48f55717bbb397a920fd94ec5ef18',
        'kirwan --fixture cpn:3 --format json --pi 0,0,1 --class pd:1':
            'c9c00bba6c314444f13bb595ebe081cda5e70513fd2baa61be1887522fba61c7',
        'kirwan --fixture cpn:3 --format text --pi 0,0,1':
            '2ec9d038d8edeec537b992416b396ad13d7c9e83a0c8dbe28127e482e18ccb8a',
        'kirwan --fixture cpn:3 --format text --pi 0,0,1 --class pd:1':
            'f64dc73e0cc1b16fe5fca2f5df3e7f93bf48f221aa58e179ccc0376e020cc05f',
        'local-index --fixture cpn:3 --format json --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class one --vertex 1 --mode cohomology':
            '2b3f2b6ce61f584f1dc1b1d94dd38c0fc3d7c3669bd68e9b2357fdabb4c331d2',
        'local-index --fixture cpn:3 --format json --class one --vertex 1 --mode ktheory':
            'b1d8d56860b071a41b056e0fb54ef9f4095e74ba9c8a545ce7c7cf3209c45f4c',
        'local-index --fixture cpn:3 --format json --class one --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cpn:3 --format json --class one --vertex 2 --mode ktheory':
            '29733dce2ca98e640f5ea3f7988f0e99444e404a136790f1ee494e4713a617b4',
        'local-index --fixture cpn:3 --format json --class one --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture cpn:3 --format json --class one --vertex 3 --mode ktheory':
            'f3e9fbd8df126df8df582de2ceb2a40a35e500a9fdbb89ed81feb8164d4ec79f',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 1 --mode cohomology':
            'b1d8d56860b071a41b056e0fb54ef9f4095e74ba9c8a545ce7c7cf3209c45f4c',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 1 --mode ktheory':
            'b1d8d56860b071a41b056e0fb54ef9f4095e74ba9c8a545ce7c7cf3209c45f4c',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 2 --mode ktheory':
            '29733dce2ca98e640f5ea3f7988f0e99444e404a136790f1ee494e4713a617b4',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture cpn:3 --format json --class pd:1 --vertex 3 --mode ktheory':
            'f3e9fbd8df126df8df582de2ceb2a40a35e500a9fdbb89ed81feb8164d4ec79f',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 1 --mode cohomology':
            'b1d8d56860b071a41b056e0fb54ef9f4095e74ba9c8a545ce7c7cf3209c45f4c',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 1 --mode ktheory':
            'b1d8d56860b071a41b056e0fb54ef9f4095e74ba9c8a545ce7c7cf3209c45f4c',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 2 --mode ktheory':
            '29733dce2ca98e640f5ea3f7988f0e99444e404a136790f1ee494e4713a617b4',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture cpn:3 --format json --class tau:1 --vertex 3 --mode ktheory':
            'f3e9fbd8df126df8df582de2ceb2a40a35e500a9fdbb89ed81feb8164d4ec79f',
        'local-index --fixture cpn:3 --format text --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class one --vertex 1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class one --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class one --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class one --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class one --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class one --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class pd:1 --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture cpn:3 --format text --class tau:1 --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'pd --fixture cpn:3 --format json --mode cohomology':
            'f91a95c7e0a0624f14cffeaf0033e2055c2f714c6f8f54b63a77c1141acdef04',
        'pd --fixture cpn:3 --format json --mode ktheory':
            'fca0a14d0548beb06bd3235b5b1975f39ecd31499af945d856df69de650e32ad',
        'pd --fixture cpn:3 --format text --mode cohomology':
            'd8daf9b09785bbe085f5bfbf2032674b21b48d0324cb2ab49a8c24607c17f968',
        'pd --fixture cpn:3 --format text --mode ktheory':
            '91cb37dbb0e1a7cb2e474720bfee8bc2cdff5749017282aeb3a81e8d67243902',
        'structure --fixture cpn:3 --format json --mode cohomology':
            'd221daaae21b822a3821203f77d74a374c6d1f3c179b5deaad850658686ab2ee',
        'structure --fixture cpn:3 --format json --mode ktheory':
            '0cb1d0ea8df457c7f13289601102e7e9e4e00d1a982e9b159ba1d3d9d0f16e13',
        'structure --fixture cpn:3 --format text --mode cohomology':
            'dade02cfef381bec76777cab9484e6969a1289b145fb7501b9eb4ed2afe9836a',
        'structure --fixture cpn:3 --format text --mode ktheory':
            'e81a0e859ecad5b4131a3e175b0f4b857bfe770daa19cd84496f929a05b9b393',
        'verify --fixture cpn:3 --format json --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
        'verify --fixture cpn:3 --format text --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
    },
    'hirzebruch': {
        'basis --fixture hirzebruch --format json --normalization canonical --mode cohomology':
            '482a8657d4c4870fbaac863558eebd5b6ee1bbc8e26eef634b4d85eb24283b6b',
        'basis --fixture hirzebruch --format json --normalization canonical --mode ktheory':
            '3f11b9b7f0512e9696011f91aa18ad7ac5b17b8a9851d6a83eced04d7c506624',
        'basis --fixture hirzebruch --format json --normalization point --mode cohomology':
            '482a8657d4c4870fbaac863558eebd5b6ee1bbc8e26eef634b4d85eb24283b6b',
        'basis --fixture hirzebruch --format json --normalization point --mode ktheory':
            'ad08ddc34ea9a60be3c52be4b8ec523c73f7dbf225d18a7d66fe02e7743e397b',
        'basis --fixture hirzebruch --format text --normalization canonical --mode cohomology':
            'b560531dd781665fabedb8ca5657a90270891affddbe6b65d089e564fc982eae',
        'basis --fixture hirzebruch --format text --normalization canonical --mode ktheory':
            '7e0a8866025efff1e3a160cdd84d432e1a27c12ca4c409d14d7a08054df35135',
        'basis --fixture hirzebruch --format text --normalization point --mode cohomology':
            'b560531dd781665fabedb8ca5657a90270891affddbe6b65d089e564fc982eae',
        'basis --fixture hirzebruch --format text --normalization point --mode ktheory':
            '83c37daa1b8c5c93764086f2d2a88576da85a99deb75296ac6afead864c869a6',
        'check --fixture hirzebruch --format json --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format json --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format json --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format json --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format text --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format text --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format text --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture hirzebruch --format text --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'graph --fixture hirzebruch --format json':
            '828ad3802ca4e65bb9afd48805a2b08fddd1140dde7326378bd6916ebe63ce24',
        'graph --fixture hirzebruch --format text':
            '8e495c1df0c7e2cd8d48f950e3c4af9a4ffc5102ac3a3cab1de8d665d0843bb5',
        'gt --fixture hirzebruch --format json':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'gt --fixture hirzebruch --format text':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format json --class gt:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format json --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format json --class one --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format json --class one --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture hirzebruch --format json --class pd:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format json --class pd:1 --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture hirzebruch --format json --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format json --class point:1 --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format json --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format json --class sample --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format json --class tau:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format json --class tau:1 --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture hirzebruch --format text --class gt:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format text --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format text --class one --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture hirzebruch --format text --class one --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture hirzebruch --format text --class pd:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture hirzebruch --format text --class pd:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture hirzebruch --format text --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format text --class point:1 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture hirzebruch --format text --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture hirzebruch --format text --class sample --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture hirzebruch --format text --class tau:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture hirzebruch --format text --class tau:1 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'kirwan --fixture hirzebruch --format json --pi 0,1':
            '706d49392cc8906b06688560bba46fd40b2c52afc5b4d86403e5c083b043bee0',
        'kirwan --fixture hirzebruch --format json --pi 0,1 --class pd:1':
            'e9918223631ab38519fea7a47890c36569efae24da92ba0c9f921a3294ecc104',
        'kirwan --fixture hirzebruch --format text --pi 0,1':
            'df3a394f0cfb6b08e99d3f72aa0ffd308f4981823ed1fb9d0a02ed09ebb4f49a',
        'kirwan --fixture hirzebruch --format text --pi 0,1 --class pd:1':
            '7077dc455b6f3ff9efe54621a0da8cfa0c3fda41f11e15da2288a01710035d19',
        'local-index --fixture hirzebruch --format json --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class one --vertex 1 --mode cohomology':
            '2b3f2b6ce61f584f1dc1b1d94dd38c0fc3d7c3669bd68e9b2357fdabb4c331d2',
        'local-index --fixture hirzebruch --format json --class one --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture hirzebruch --format json --class one --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture hirzebruch --format json --class one --vertex 2 --mode ktheory':
            '18b0b773cd08734102b738b3d9c55c7cffb56e720898f1420f9f97e395dccc33',
        'local-index --fixture hirzebruch --format json --class one --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture hirzebruch --format json --class one --vertex 3 --mode ktheory':
            '878c4bf1e0b0e05792f2f045dd41f8bcbc842f85c7bb624cd0b1a0cf48640a8e',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 1 --mode cohomology':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 2 --mode ktheory':
            'e3db6ebfc0694971337f6f71ff3ab45b26c468afb8e97ffb84960ba95db5d637',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture hirzebruch --format json --class pd:1 --vertex 3 --mode ktheory':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 1 --mode cohomology':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 1 --mode ktheory':
            '413145808bce73c022387c94ff27846c1e6a522f4ef5ca5f0fa8e0353dfdd06b',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 2 --mode cohomology':
            '95591ea5bbdad75665e8061b78751f77d07407ae41db2f8277f600bef19bd939',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 2 --mode ktheory':
            '18b0b773cd08734102b738b3d9c55c7cffb56e720898f1420f9f97e395dccc33',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 3 --mode cohomology':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture hirzebruch --format json --class tau:1 --vertex 3 --mode ktheory':
            'a5da45277e955835e2f34370d50af9f04d350ebfa293db46a4c5734d09694bbc',
        'local-index --fixture hirzebruch --format text --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class one --vertex 1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class one --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class one --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class one --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class one --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class one --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 2 --mode ktheory':
            'fde733aa3dd6e31bebe7727cb3867c4f39fb1fade73397d683713cedf32ac99e',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class pd:1 --vertex 3 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture hirzebruch --format text --class tau:1 --vertex 3 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'pd --fixture hirzebruch --format json --mode cohomology':
            '482a8657d4c4870fbaac863558eebd5b6ee1bbc8e26eef634b4d85eb24283b6b',
        'pd --fixture hirzebruch --format json --mode ktheory':
            '995f94b4d111593ad555b1ceb321778e301de1b209a0d99ed117b1928fb89add',
        'pd --fixture hirzebruch --format text --mode cohomology':
            'fafdd88d4d59511cb668b0b0088254434f82f136a1a40ff1145447932dc9dc12',
        'pd --fixture hirzebruch --format text --mode ktheory':
            'fd8df0143a8428d3f3645983b005337d3e776327c0fb82a220c2b88131362b46',
        'structure --fixture hirzebruch --format json --mode cohomology':
            'e6a81411b9a92029024b11f51fff2e2891919abdb97d83a38cfb938a92a38264',
        'structure --fixture hirzebruch --format json --mode ktheory':
            '69bc7a7115d7025031a4a80d96763636a2076b2441be5e7c2d8a39910d88cc7e',
        'structure --fixture hirzebruch --format text --mode cohomology':
            'fa43ea984401f4c52730b6100de999ee0e2d1c13674b84329b15ea6a95bbaf0b',
        'structure --fixture hirzebruch --format text --mode ktheory':
            'be6a8ed3a97863b6896aff4a7eeafb002414a6b0871faca556d2c6bc38d6d5f4',
        'verify --fixture hirzebruch --format json --level full':
            '3b55158f4e391a3dbd756c23f9170c7e69a25e96b2cbc639cbe278e0d80672b4',
        'verify --fixture hirzebruch --format text --level full':
            '3b55158f4e391a3dbd756c23f9170c7e69a25e96b2cbc639cbe278e0d80672b4',
    },
    'square': {
        'basis --fixture square --format json --normalization canonical --mode cohomology':
            'bd082f172f9efbf24cdd04e20103af14e0373ce1f45cc8049f34ab46a069d344',
        'basis --fixture square --format json --normalization canonical --mode ktheory':
            '74ba676d4adeddb2edfd91d67ca27c180378c062328b76b65dbcc9feaafa1f70',
        'basis --fixture square --format json --normalization point --mode cohomology':
            'bd082f172f9efbf24cdd04e20103af14e0373ce1f45cc8049f34ab46a069d344',
        'basis --fixture square --format json --normalization point --mode ktheory':
            'ce39cecfc6515fdad862fbfbdeeaf7d36575e44a402e5c9941869ceb2c328eb5',
        'basis --fixture square --format text --normalization canonical --mode cohomology':
            'a547e7d5e6526b594c2ae369f98283afef34143f1745f8ba0658247591e44c73',
        'basis --fixture square --format text --normalization canonical --mode ktheory':
            '93c15a0a8129f7b465c88c5aa5cacc3bcaca7f977d10a06b8a4668306267d679',
        'basis --fixture square --format text --normalization point --mode cohomology':
            'a547e7d5e6526b594c2ae369f98283afef34143f1745f8ba0658247591e44c73',
        'basis --fixture square --format text --normalization point --mode ktheory':
            '7d0d607ef4323a94f3bc6935cd014feafdc962e95e1cb178a3be6d6a8c9ca260',
        'check --fixture square --format json --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format json --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format json --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format json --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format text --class pd:2 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format text --class pd:2 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format text --class tau:1 --mode cohomology':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'check --fixture square --format text --class tau:1 --mode ktheory':
            '9dbd5131695af2d8636ea64178344ffcb5d682333c2ac8342153b5f8a999037a',
        'graph --fixture square --format json':
            'b01fcf0abec41c38e2f78f33da041216ddf6349a8622e4ee426e577093ee6452',
        'graph --fixture square --format text':
            'f4be9811c1eb5e3a2c4232965ad3368afcd24582af034ccf8d84e33f51df629a',
        'gt --fixture square --format json':
            'bd082f172f9efbf24cdd04e20103af14e0373ce1f45cc8049f34ab46a069d344',
        'gt --fixture square --format text':
            '31e847038eaf3240d678554b49aa54bf98697e65c1198e0d4476ebbf728e5145',
        'index --fixture square --format json --class gt:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture square --format json --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format json --class one --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture square --format json --class one --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture square --format json --class pd:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture square --format json --class pd:1 --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture square --format json --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format json --class point:1 --mode ktheory':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture square --format json --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format json --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture square --format json --class tau:1 --mode cohomology':
            'dceb030cafe5b84f074c2e73de09e417e7ce653b4d14f478175716bd08155dd8',
        'index --fixture square --format json --class tau:1 --mode ktheory':
            'cef4ceebd70a8a60e5d3d14d863a708777253994ed1f62912198db057a4fb1c2',
        'index --fixture square --format text --class gt:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture square --format text --class gt:1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format text --class one --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture square --format text --class one --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture square --format text --class pd:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture square --format text --class pd:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'index --fixture square --format text --class point:1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format text --class point:1 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture square --format text --class sample --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'index --fixture square --format text --class sample --mode ktheory':
            '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2',
        'index --fixture square --format text --class tau:1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'index --fixture square --format text --class tau:1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'kirwan --fixture square --format json --pi 1,1':
            'de411f085c484ce4e6585239378615c463cfdd9ac9a77f95e110f2f805bf0a5f',
        'kirwan --fixture square --format json --pi 1,1 --class pd:1':
            '0f66073f3125377d5bbf1e093a75ac2034274b0fb8a8fecbbeadf736b66d75d1',
        'kirwan --fixture square --format text --pi 1,1':
            '4cff615218d357375992af214f8feb2ca24c89cdd31e6734ebccd067589d6406',
        'kirwan --fixture square --format text --pi 1,1 --class pd:1':
            'ece67c60894882cdb1603c1beb8e13a569a7f442cf194af8aa377cfee23183f9',
        'local-index --fixture square --format json --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class one --vertex 1 --mode cohomology':
            'a4bb1c344671a737d8852d09c914cb6956a42a0e6ff1ebebd764161c7c52bb03',
        'local-index --fixture square --format json --class one --vertex 1 --mode ktheory':
            '9a2d4219e1446b30625a09bff37fbf4f3615add998dd8d9062fff69206f4343c',
        'local-index --fixture square --format json --class one --vertex 2 --mode cohomology':
            'd4c58e180cf42ef1bad28fbee5c3dd91e862927b19a37d36b10b8536ec381333',
        'local-index --fixture square --format json --class one --vertex 2 --mode ktheory':
            'eb4081d40da6fc04196ec214dabde8dc2cc53047200d9022354cbcefddc85eed',
        'local-index --fixture square --format json --class one --vertex 3 --mode cohomology':
            'adef47f4e8278215d4954e800e39a29d7ed95838d2bd99957bb7ab9c3997864a',
        'local-index --fixture square --format json --class one --vertex 3 --mode ktheory':
            '153709443c09d0a1e0083a5940fc7882442ebb9878690e160acc595cb1ba146b',
        'local-index --fixture square --format json --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class pd:1 --vertex 1 --mode cohomology':
            '9a2d4219e1446b30625a09bff37fbf4f3615add998dd8d9062fff69206f4343c',
        'local-index --fixture square --format json --class pd:1 --vertex 1 --mode ktheory':
            '9a2d4219e1446b30625a09bff37fbf4f3615add998dd8d9062fff69206f4343c',
        'local-index --fixture square --format json --class pd:1 --vertex 2 --mode cohomology':
            'd4c58e180cf42ef1bad28fbee5c3dd91e862927b19a37d36b10b8536ec381333',
        'local-index --fixture square --format json --class pd:1 --vertex 2 --mode ktheory':
            'd4c58e180cf42ef1bad28fbee5c3dd91e862927b19a37d36b10b8536ec381333',
        'local-index --fixture square --format json --class pd:1 --vertex 3 --mode cohomology':
            'adef47f4e8278215d4954e800e39a29d7ed95838d2bd99957bb7ab9c3997864a',
        'local-index --fixture square --format json --class pd:1 --vertex 3 --mode ktheory':
            '153709443c09d0a1e0083a5940fc7882442ebb9878690e160acc595cb1ba146b',
        'local-index --fixture square --format json --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format json --class tau:1 --vertex 1 --mode cohomology':
            '9a2d4219e1446b30625a09bff37fbf4f3615add998dd8d9062fff69206f4343c',
        'local-index --fixture square --format json --class tau:1 --vertex 1 --mode ktheory':
            '9a2d4219e1446b30625a09bff37fbf4f3615add998dd8d9062fff69206f4343c',
        'local-index --fixture square --format json --class tau:1 --vertex 2 --mode cohomology':
            'd4c58e180cf42ef1bad28fbee5c3dd91e862927b19a37d36b10b8536ec381333',
        'local-index --fixture square --format json --class tau:1 --vertex 2 --mode ktheory':
            'd4c58e180cf42ef1bad28fbee5c3dd91e862927b19a37d36b10b8536ec381333',
        'local-index --fixture square --format json --class tau:1 --vertex 3 --mode cohomology':
            'adef47f4e8278215d4954e800e39a29d7ed95838d2bd99957bb7ab9c3997864a',
        'local-index --fixture square --format json --class tau:1 --vertex 3 --mode ktheory':
            '153709443c09d0a1e0083a5940fc7882442ebb9878690e160acc595cb1ba146b',
        'local-index --fixture square --format text --class one --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class one --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class one --vertex 1 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class one --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class one --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class one --vertex 2 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class one --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class one --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class pd:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class pd:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class pd:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class pd:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class pd:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class pd:1 --vertex 2 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class pd:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class pd:1 --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class tau:1 --vertex -1 --mode cohomology':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class tau:1 --vertex -1 --mode ktheory':
            '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        'local-index --fixture square --format text --class tau:1 --vertex 1 --mode cohomology':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class tau:1 --vertex 1 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'local-index --fixture square --format text --class tau:1 --vertex 2 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class tau:1 --vertex 2 --mode ktheory':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class tau:1 --vertex 3 --mode cohomology':
            '52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262',
        'local-index --fixture square --format text --class tau:1 --vertex 3 --mode ktheory':
            '82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae',
        'pd --fixture square --format json --mode cohomology':
            'bd082f172f9efbf24cdd04e20103af14e0373ce1f45cc8049f34ab46a069d344',
        'pd --fixture square --format json --mode ktheory':
            '74ba676d4adeddb2edfd91d67ca27c180378c062328b76b65dbcc9feaafa1f70',
        'pd --fixture square --format text --mode cohomology':
            'cfdf8ca722aa4f560d321b07d998327dbe9c6dbadc3dd723f58901dda3f7cb9c',
        'pd --fixture square --format text --mode ktheory':
            'e8ebe1a5771052c419558c2953e3f53b9015dbdf03ea8bf0a061c1bdf5c320d9',
        'structure --fixture square --format json --mode cohomology':
            '05295f9cb41d5ec8fb17df7d2961ed472e0e9cbc861dad964021916718be3f6d',
        'structure --fixture square --format json --mode ktheory':
            '3ab55b742619ec0c6e71e3d849bcfd86a34a6dd04510b4b99b27fc842a32dcbf',
        'structure --fixture square --format text --mode cohomology':
            'f90e222c6de0d566654719bc06bea9566f7dc486f9bc2ad53a3324d841175e25',
        'structure --fixture square --format text --mode ktheory':
            'be061267e535d3b7a7c333fe04d8cb038a2b26af18c8fb247044547bce26c768',
        'verify --fixture square --format json --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
        'verify --fixture square --format text --level full':
            'd9bbd3ca67f42f8c5fa2821933891e46e6c538ba7344f3a3afbf70f9ff36bc0e',
    },
}

if __name__ == "__main__":
    json.dump({f: digests(f) for f in FIXTURES}, sys.stdout, indent=4, sort_keys=True)
