"""Golden gate for the README CLI commands: exit code and the sha256 of
stdout must not change.  `verify all` is left out for its run time.
The last five commands cover the Chebyshev, gamma-zero and Fraction
tables and two far-out single entries; their hashes were recorded before
the triangle rows and entries were merged into one recurrence kernel.
The two saddle tables off z = w (nu 1 at z 2, nu 2 at z 1) were recorded
before Q(n) went from two evaluations to one.  The cdf table at n 800 and
the Edgeworth table at n 400 carry the hashes of `perfbench/golden.json`
and were recorded before each table went to one builder.  The three
saddle tables at 64, 512 and 1024 bits were recorded before the zeta
direct sum was sized from the precision.  The Legendre table at n 400,
cold and then warm, carries the hash of `perfbench/golden.json` and was
recorded before the CSV writer stopped parsing the stored records.
The last six commands (a saddle table whose n = 1 tail bound is `nan`,
residual and ratio reports at 64 bits, and three root certificates, one
refined) were recorded before every table and JSON object went through
the CLI's own writers.  The cdf tables at n 100 and the Edgeworth
tables at n 60, each at 64 and 1024 bits, and the mass table at 512
bits pin the normal distribution function, the Hermite corrections and
the shared row scale away from the 256-bit default; they were recorded
before each of those formulas was reduced to one copy.  The three
refined root certificates at the end (n 40 and n 8 at 300 bits, n 30 at
64 bits) were recorded while the intervals came from Sturm chains and
the midpoints from plain bisection; at n 8 and 300 bits a converged
Newton step lands on a bracket end.  The five `verify` suites pin
every PASS/FAIL line and its printed detail.  The first three
(identities, clt with its one FAIL line and exit 1, eisenstein) were
recorded while each direct sum evaluated every term of its binomial
range and each lattice sum evaluated both points of every conjugate
pair.  The last two (roots, edgeworth) carry the hashes of
`perfbench/golden.json`; they were recorded while the Legendre
recurrence was a hand-expanded second-order step and each lattice sum
ran a complex total.  The two table commands after the suites span
many blocks of the table printer: the Legendre table at n 400 as JSON (43 MB,
served warm from the file the CSV commands wrote), whose hash was
recorded on the commit before `lslab table` printed in checked blocks,
and the cold Jacobi 2/3 table at n 200 (Fractions, 48 blocks), which
carries the hash of `perfbench/golden.json`.  The last two commands,
the Edgeworth tables of rows 2 and 3 (the second at 80 bits), are the
smallest rows the expansion takes; they were recorded while every
lattice point re-ran the expansion's checks and conversions, before
`density_expansion` evaluated a whole row in one call.  The cdf table at
n 1999, the last row under the cap, was recorded while the scaled cdf
summed the prefixes of the whole row, before it took them from the row
mass and the top band of the row.

The hashes were recorded before the single-production-path refactor of
the CLI, row builders and writers; a change that moves any printed digit
fails here first.  The table commands share one private cache directory,
so the second legendre table is served from the cache file the first one
wrote.
"""

import hashlib

import pytest

from lslab.cli import main

GOLDEN = [
    ("compute --family legendre --n 3 --j 2", 0,
     "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    ("compute --family jacobi --gamma 1/2 --n 3 --j 2", 0,
     "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    ("table --family legendre --n-max 10 --format csv --cache-dir {cache}", 0,
     "8eaf5f065911c342cf8ee7ac72ca2142940e60f84f47861e16de1485b9bbd400"),
    ("table --family legendre --n-max 10 --format csv --cache-dir {cache}", 0,
     "8eaf5f065911c342cf8ee7ac72ca2142940e60f84f47861e16de1485b9bbd400"),
    ("table --family legendre --n-max 10 --format json --cache-dir {cache}", 0,
     "62943ee4ec95586e997de4dfd9db51b7188e49cc55b39346d1b43f663450f435"),
    ("table --family jacobi --gamma 2/3 --n-max 10 --format csv --cache-dir {cache}", 0,
     "fe99b0359e9604acb9ba375055603d2bad1f70439d8cb68f8fe497fcf3652b65"),
    ("roots --n 12 --refine-bits 128", 0,
     "c4dd8ca731b9d382c78aa9919eb1bfedff469ace80abab166c4a82bb06115872"),
    ("clt --report ratio --n 1000 --j 930", 0,
     "e0511623099a7433e81dc2edc41a0b3c10b1c9619f90aa23b0fd1eb175ade6eb"),
    ("clt --report cdf --n 400", 0,
     "136b4794ba93a6c743637850ee15983ffdb2da9e3e270b47999b1de685883532"),
    ("clt --report residuals --n-list 100,200,400", 0,
     "7cc1319a37c3a13cc7134cc00da12b12b4f627f00d944c8843c3ff476126078c"),
    ("edgeworth --n 200", 0,
     "0f152b520c8a37ce8a8a5e8d854af2636087d3da8b1604b2cc761427e62e3089"),
    ("asymptotics --report saddle --nu 0 --z w --n-list 100,200,400", 0,
     "e6fb7153328263f259c75c7dbbaa133189a00fb9ff49bf024f2dea50a1293e6b"),
    ("asymptotics --report mass --n-list 50,100,200,400", 0,
     "ea73a7d97fe6b44972a45f1296c4d47d90694e64bbd534c1e8a3b391adb2eccc"),
    ("table --family chebyshev --n-max 12 --cache-dir {cache}", 0,
     "b5916ecdfcc3b613488d95681aa76607fceb4ad7e4705336c11293b10dcd2321"),
    ("table --family jacobi --gamma 0 --n-max 12 --format json --cache-dir {cache}", 0,
     "51a97153cdf4c9f6779140080945d63df6d924568e0cd3a8a43eb8c988e45286"),
    ("table --family jacobi --gamma 5/7 --n-max 8 --cache-dir {cache}", 0,
     "44d70009d887977547c5277affb0387f18bbdd9498313218fbeeb8654f184941"),
    ("compute --family legendre --n 400 --j 380", 0,
     "ff349060548207f70408d591ecd1452b5070d03b4d5f448e94f54169d9cb3c4e"),
    ("compute --family jacobi --gamma 2/3 --n 30 --j 11", 0,
     "eaf92cc860e038f963e40f6b7c5967d9d13ada868bd4c8b89f6a6000de9a28f9"),
    ("asymptotics --report saddle --nu 1 --z 2 --n-list 50,100,400", 0,
     "bb7cc469e4466c4f1529de139bb241d2bd4806f9432137fa360ce59736d74329"),
    ("asymptotics --report saddle --nu 2 --z 1 --n-list 100,200,400", 0,
     "d3b2aac01bde330c76c85c23247828a9d9e5d1bb2e0351eba0f942920732e361"),
    ("clt --report cdf --n 800", 0,
     "880344b7feb148555fb9648b1f7b0298742a895085d1a3f9f997f60ecada7e94"),
    ("edgeworth --n 400", 0,
     "1951fd16cf90e2c992abc01354cefed891222a35b42392f2d67edb9e34a30a8b"),
    ("asymptotics --report saddle --nu 0 --z w --n-list 100,200,400 --precision-bits 64", 0,
     "459153c08be2d32760eba00ed4b7287d87e9ecfbb05ce734cb3c68386a5c6532"),
    ("asymptotics --report saddle --nu 0 --z w --n-list 100,200,400 --precision-bits 512", 0,
     "654022b4495535c075f8ce0b6c9c43a484ca80c8fb686682379e601360c34382"),
    ("asymptotics --report saddle --nu 1 --z 2 --n-list 50,100 --precision-bits 1024", 0,
     "a1cc44f4c1e8801ba6c741798defcf8ec4e2437432428888756c3de28dec5795"),
    ("table --family legendre --n-max 400 --cache-dir {cache}", 0,
     "23c795ca1e559cb91bb4b7a5448b15d01aeb80ad89ed2a0c0043bd4a8f8a6890"),
    ("table --family legendre --n-max 400 --cache-dir {cache}", 0,
     "23c795ca1e559cb91bb4b7a5448b15d01aeb80ad89ed2a0c0043bd4a8f8a6890"),
    ("asymptotics --report saddle --nu 0 --z 1 --n-list 1,2,4", 0,
     "8011d030428585d445335a12ca458270f2624f65e0c8959579422c4fccf6fbaa"),
    ("clt --report residuals --n-list 2,4,8 --precision-bits 64", 0,
     "9ccd4634ee34c58a59474bd08482a9bc776c38b897e127c22a605fcdf6a11b6b"),
    ("clt --report ratio --n 30 --j 20 --precision-bits 64", 0,
     "e6fed6a7b1e23399e15e37b2345d50c50f05247185cf1709460fb5db2c702803"),
    ("roots --n 1", 0,
     "3de1c67cc34c508aae462015e1ec62e55fdf982049e93c21624824bc18115ab5"),
    ("roots --n 3", 0,
     "bfdfb4af86716b382269f7cea7d8a6dcc96611904b16e7133533b3a663164e3b"),
    ("roots --n 2 --refine-bits 70", 0,
     "784794f9801839c629ccf724bd95faa3745f4fbcf266d2c84c1e0b8921ccd5a5"),
    ("clt --report cdf --n 100 --precision-bits 64", 0,
     "0caa85fd622d2ff8cdd5cb6e65dfff24e0e0dab7822ab737da60d7172a53bb93"),
    ("clt --report cdf --n 100 --precision-bits 1024", 0,
     "09641fd72ec4e0440d2b49ca6cd11f645484df63b502175af2ffd79bf0b24fc9"),
    ("edgeworth --n 60 --precision-bits 64", 0,
     "a0e640e47fed9dd7c1a6f94129f1d0b1bfa4fc9cac639f249da9e5e33361c852"),
    ("edgeworth --n 60 --precision-bits 1024", 0,
     "8fb03086abbfe1c4a73f6ff81965d929d07726384eb43606ccf3d6408b48eb7a"),
    ("asymptotics --report mass --n-list 20,50 --precision-bits 512", 0,
     "e26c842806e06f620652f1906f12c4159d4b1593f006d279b02c0d59739fb43a"),
    ("roots --n 40 --refine-bits 300", 0,
     "001bddddf8523c9cb218c8eae9a8511ae9f769f876faf241dcdfe90fa21a7d4a"),
    ("roots --n 30 --refine-bits 64", 0,
     "4f3fde900232a390e90be18c9b2b8dab5b3b43e9f0a6f144f46132973941879d"),
    ("roots --n 8 --refine-bits 300", 0,
     "ea0029542aab3f731ac869c1355a886e0468f2adf4468e8b5f80a815a0cd8143"),
    ("verify identities", 0,
     "e370f0604c2bf30c6138185908455f52908a83b17db2b2072e8ef5e630cedaa8"),
    ("verify clt", 1,
     "c9f7ac9c6c6b21b0e63da8e0700ec7ab777914dafa29187fc8a7342b2b01a682"),
    ("verify eisenstein", 0,
     "6f44ba9e5c9178271b99caa51df87aae5b31aa95c282eb6f70c1666fb733a60f"),
    ("verify roots", 0,
     "4dea8ec8fadffc5c214a87904bdf506f1f13dd9d83e962ffaaab0ef4cfd05924"),
    ("verify edgeworth", 0,
     "ca2f31f93aba76cb99983828e4bb9c9b64d03a61a50801083576a895936ab5e9"),
    ("table --family legendre --n-max 400 --format json --cache-dir {cache}", 0,
     "4075781383950c36b893bee03394aaec5a125fbd1caf2f5caa2cec3eca7956c0"),
    ("table --family jacobi --gamma 2/3 --n-max 200 --cache-dir {cache}", 0,
     "9fac330b570b8c1770b313ff1f36c5ac313572f1bb56bbc18fe5f0855e97de86"),
    ("edgeworth --n 2", 0,
     "a32d7f61cf5c5fe42bb31aa396d1db4296906972ed94311591396e75c915c148"),
    ("edgeworth --n 3 --precision-bits 80", 0,
     "2d33380699f5fc5c94655436cf268d472e98d36ae22a9b99d620519812d733b9"),
    ("clt --report cdf --n 1999", 0,
     "3aa61681466fd0779a1fc41b0a05b7a1f1b23d5be4ac52ed74361a9461036a8b"),
]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(command, code, digest, cache_dir, capsys):
    argv = command.format(cache=cache_dir).split()
    assert main(argv) == code
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
