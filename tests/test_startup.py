"""Start-up: importing slhnet loads numpy and scipy's LAPACK wrapper file, not scipy.

matkit binds zgetrf, zgetrs and zgecon from ``scipy/linalg/_flapack``,
loaded by path under the private name ``slhnet._flapack``, and takes them
from SciPy's own ``scipy.linalg._flapack``, the module behind
``get_lapack_funcs``, when ``scipy.linalg`` is already imported or the file
is not found.  Either way the routines, and every
factor, solve, estimate and decision made with them, are the same.  The
first sparse factorization loads SciPy's SuperLU and sparsetools files the
same way, as ``slhnet._superlu`` and ``slhnet._sparsetools``, and imports
no SciPy module; where the files are not found, the same modules are
imported by their usual names, with the same output bytes and exit codes.

The command line's main() fixes glibc's mmap and trim thresholds, so a
command's arrays stay in the heap from one call to the next.
"""

import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from slhnet import LinearComponent, cli, matkit
from slhnet.netfile import serialize
from support import haar_unitary, random_network

SRC = os.path.dirname(os.path.dirname(matkit.__file__))
NOT_LOADED = ("scipy", "scipy.linalg", "scipy.sparse", "numpy.f2py", "numpy.testing")


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter with ``args`` as sys.argv[1:]; its stdout."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True, timeout=120, check=False,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs reduce and freqresp through cli.main, prints their outputs, then the
# names of NOT_LOADED that are loaded.  With "hidden" as the first argument
# the locator finds no scipy, as where scipy's file layout differs.  Each of
# netfile's patterns is compiled by the first parse that needs it: the import
# compiles none, a valid file not those of the error walks, a valid strat2ito
# file neither, and an error _TOKEN.
_DENSE_COMMANDS = """
    import contextlib
    import importlib.util
    import io
    import os
    import re
    import sys
    import tempfile
    hidden, path, names = sys.argv[1] == "hidden", sys.argv[2], sys.argv[3:]
    compiled, compile = [], re.compile
    def recording_compile(pattern, *args, **kwargs):
        compiled.append(pattern)
        return compile(pattern, *args, **kwargs)
    re.compile = recording_compile
    if hidden:
        find_spec = importlib.util.find_spec
        importlib.util.find_spec = lambda name, *rest: (
            None if name == "scipy" else find_spec(name, *rest))
    import slhnet.cli
    if hidden:
        importlib.util.find_spec = find_spec
    flapack = sys.modules.get("slhnet._flapack")
    assert (flapack is sys.modules.get("scipy.linalg._flapack")) == hidden
    netfile = slhnet.netfile
    def compiled_patterns():
        names = ("_HEAD", "_ENTRY", "_CLOSE", "_EOF", "_STATEMENT", "_COMMENT", "_TOKEN",
                 "_LEXABLE", "_ROWS")
        return {name for name in names if getattr(netfile, name, None) in compiled}
    assert compiled_patterns() == set()
    assert slhnet.cli.main(["reduce", path]) == 0
    assert slhnet.cli.main(["freqresp", path, "--grid", "-2:2:9"]) == 0
    assert {"_HEAD", "_ENTRY", "_CLOSE"} <= compiled_patterns()
    assert not {"_TOKEN", "_LEXABLE", "_ROWS"} & compiled_patterns()
    with tempfile.TemporaryDirectory() as tmp:
        gen = os.path.join(tmp, "gen.txt")
        with open(gen, "w") as f:
            f.write("E = [[0,0.5],[0.5,0]];\\nF = [[1],[1i]];\\nK = [[0.25]];  # end\\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert slhnet.cli.main(["strat2ito", gen]) == 0
    assert not {"_TOKEN", "_LEXABLE", "_ROWS"} & compiled_patterns()
    assert "_EOF" in compiled_patterns()
    try:
        netfile.parse("component c {")
    except netfile.ParseError:
        pass
    assert "_TOKEN" in compiled_patterns()
    print([name for name in names if name in sys.modules])
"""


def test_dense_commands_load_no_scipy_and_match_the_fallback(tmp_path):
    path = tmp_path / "net.qnet"
    path.write_text(serialize(random_network(np.random.default_rng(5), units=8)))
    *outputs, loaded = _python(_DENSE_COMMANDS, "file", str(path), *NOT_LOADED).splitlines()
    assert loaded == "[]"
    *fallback, loaded = _python(_DENSE_COMMANDS, "hidden", str(path), *NOT_LOADED).splitlines()
    assert "'scipy.linalg'" in loaded
    assert fallback == outputs
    assert outputs[0].startswith("component reduced") and outputs[-1].startswith("2,")


def _file_routines(monkeypatch) -> tuple:
    """zgetrf, zgetrs and zgecon as a fresh interpreter binds them: from scipy's file."""
    monkeypatch.delitem(sys.modules, "scipy.linalg")
    routines = matkit._lapack()
    flapack = sys.modules["slhnet._flapack"]
    assert routines == (flapack.zgetrf, flapack.zgetrs, flapack.zgecon)
    return routines


def _systems(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random n×n systems (M, RHS), and some with a pivot or rcond near PIVOT_REL."""
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    plain = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    near = []
    for t in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0):
        d = np.ones(n, dtype=complex)
        d[-1] = t * matkit.PIVOT_REL        # for n > 1, a pivot at t·PIVOT_REL·‖M‖₁
        near.append(np.diag(d))
        near.append(u @ np.diag(d) @ v)     # the same singular values, pivots unlike them
    return [(m, rhs) for m in plain + near]


def _lu(routines, m, rhs) -> tuple[bytes, ...]:
    """The bytes of the LU, pivots, solution and rcond the three routines give for M, RHS."""
    getrf, getrs, gecon = routines
    anorm = float(np.abs(m).sum(axis=0).max())
    lu, piv, info = getrf(np.array(m, order="F"), overwrite_a=True)
    x, _ = getrs(lu, piv, rhs)
    rcond, _ = gecon(lu, anorm)
    return lu.tobytes(), piv.tobytes(), bytes([info]), x.tobytes(), np.float64(rcond).tobytes()


def _decision(routines, m, rhs, monkeypatch) -> tuple:
    """matkit.factor's verdict on M with the given routines: its rcond and solution, or the
    condition it raised SingularMatrix with."""
    with monkeypatch.context() as mp:
        for name, routine in zip(("_getrf", "_getrs", "_gecon"), routines):
            mp.setattr(matkit, name, routine)
        try:
            lu = matkit.factor(m)
        except matkit.SingularMatrix as exc:
            return "singular", exc.condition
        return "solved", lu.rcond(), lu.solve(rhs).tobytes()


@pytest.mark.parametrize("n", [1, 3, 17, 64, 200])
def test_routines_from_the_file_are_bit_equal_to_get_lapack_funcs(n, monkeypatch):
    by_file = _file_routines(monkeypatch)
    reference = tuple(get_lapack_funcs(("getrf", "getrs", "gecon"), dtype=complex))
    decisions = []
    for m, rhs in _systems(n):
        assert _lu(by_file, m, rhs) == _lu(reference, m, rhs)
        decision = _decision(by_file, m, rhs, monkeypatch)
        assert decision == _decision(reference, m, rhs, monkeypatch)
        decisions.append(decision[0])
    # both verdicts are reached
    assert {"solved", "singular"} <= set(decisions)


def test_scipy_linalg_imported_first_lends_its_routines(monkeypatch):
    assert "scipy.linalg" in sys.modules
    monkeypatch.setattr(matkit, "_scipy_file", lambda path: pytest.fail("the file was looked up"))
    assert matkit._lapack() == tuple(get_lapack_funcs(("getrf", "getrs", "gecon"),
                                                      dtype=complex))


def test_hidden_file_falls_back_to_get_lapack_funcs():
    out = _python("""
        import sys
        import numpy as np
        from slhnet import matkit
        assert "slhnet._flapack" in sys.modules and "scipy.linalg" not in sys.modules
        by_file = matkit._lapack()
        matkit._scipy_file = lambda path: None       # no file where scipy's layout puts it
        del sys.modules["slhnet._flapack"]
        fallback = matkit._lapack()
        from scipy.linalg import _flapack
        assert fallback == (_flapack.zgetrf, _flapack.zgetrs, _flapack.zgecon)
        assert fallback != by_file                   # two loads of one extension file
        rng = np.random.default_rng(7)
        for n in (1, 3, 17, 64, 200):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rhs = rng.standard_normal((n, 2)) + 0j
            m[:, -1] = m[:, 0] * (1 + 1e-13)         # rcond near PIVOT_REL
            verdicts = []
            for routines in (by_file, fallback):
                matkit._getrf, matkit._getrs, matkit._gecon = routines
                try:
                    lu = matkit.factor(m)
                    verdicts.append((lu.rcond(), lu.solve(rhs).tobytes()))
                except matkit.SingularMatrix as exc:
                    verdicts.append(exc.condition)
            assert verdicts[0] == verdicts[1], n
        print("ok")
    """)
    assert out == "ok\n"


def test_scipy_linalg_imported_later_still_works():
    out = _python("""
        import numpy as np
        import slhnet
        import scipy.linalg
        from scipy.linalg import _flapack, get_lapack_funcs
        getrf = get_lapack_funcs("getrf", dtype=complex)
        assert getrf is _flapack.zgetrf and getrf.module_name == "flapack"
        m = np.array([[2, 1j], [1, 3]])
        assert np.allclose(scipy.linalg.solve(m, [1, 0]), np.linalg.solve(m, [1, 0]))
        lu, piv, info = getrf(m)
        assert info == 0 and slhnet.matkit.factor(m).lu.tobytes() == lu.tobytes()
        print("ok")
    """)
    assert out == "ok\n"


def _chain(units: int, algebraic: bool) -> str:
    """A QNET chain with ≥ SPARSE_MIN internal channels at low fill; with ``algebraic``,
    every splitter loop passes its light straight back, so the loops cannot be solved."""
    doc = random_network(np.random.default_rng(431), units=units)
    if algebraic:
        doc.components["bs"] = LinearComponent(np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)))
        doc.components["cav"] = LinearComponent(np.eye(1), [[1.0]], [[0.5]])
    return serialize(doc)


# Runs cli.main with sys.argv[2:] and prints its exit code, stdout and stderr.
# Every factorization must be given the sparse operand.  SciPy's SuperLU file,
# and after a solved loop its sparsetools file, are loaded by path, and no
# module of SciPy's is imported; with "hidden" as the first argument the
# locator finds neither file, so they are imported by their usual names, as
# where scipy's file layout differs, and the locator runs once per module.
_SPARSE_COMMAND = """
    import contextlib
    import io
    import sys
    import slhnet.cli
    from slhnet import matkit
    hidden, argv = sys.argv[1] == "hidden", sys.argv[2:]
    looked_up = []
    if hidden:
        scipy_file = matkit._scipy_file
        matkit._scipy_file = lambda path: looked_up.append(path) or (
            None if path.startswith("sparse/") else scipy_file(path))
    factored = []
    factor = matkit.factor
    matkit.factor = lambda m: factored.append(isinstance(m, matkit._Compressed)) or factor(m)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = slhnet.cli.main(argv)
    assert factored and all(factored), factored
    by_path = {"slhnet._superlu", "slhnet._sparsetools"} if code == 0 else {"slhnet._superlu"}
    if hidden:
        for name in by_path:
            usual = "scipy.sparse." + ("linalg._dsolve._superlu" if name == "slhnet._superlu"
                                       else "_sparsetools")
            assert sys.modules[name] is sys.modules[usual]
        assert sorted(looked_up) == sorted(
            {"slhnet._superlu": "sparse/linalg/_dsolve/_superlu",
             "slhnet._sparsetools": "sparse/_sparsetools"}[name] for name in by_path)
    else:
        assert by_path <= set(sys.modules)
        assert not [name for name in sys.modules if name.startswith("scipy")]
    print(repr((code, out.getvalue(), err.getvalue())))
"""


@pytest.mark.parametrize("algebraic", [False, True])
def test_first_sparse_reduction_in_a_fresh_process_decides_the_same(algebraic, tmp_path,
                                                                     capsys):
    path = tmp_path / "chain.qnet"
    path.write_text(_chain(400, algebraic))
    for argv in (["reduce", str(path)], ["freqresp", str(path), "--grid", "-2:2:9"]):
        want = (cli.main(argv), *capsys.readouterr())
        assert want[0] == (3 if algebraic else 0)
        for where in ("file", "hidden"):
            assert _python(_SPARSE_COMMAND, where, *argv) == repr(want) + "\n", (argv, where)


# Runs cli.main, then prints, for a block of 8 MiB and one of 40 MiB, whether
# malloc mapped it on its own and whether the heap kept its pages after free.
_HEAP_BLOCKS = """
    import ctypes
    import sys
    import slhnet.cli

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]

    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = Mallinfo2
    libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None

    def block(size):
        before = libc.mallinfo2()
        p = libc.malloc(size)
        during = libc.mallinfo2()
        libc.free(p)
        return during.hblks > before.hblks, libc.mallinfo2().arena == during.arena

    assert slhnet.cli.main(["check", sys.argv[1]]) == 0
    print(block(8 << 20), block(40 << 20))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or tuple(map(int, platform.libc_ver()[1].split("."))) < (2, 33),
                    reason="mallinfo2 needs glibc 2.33 or later")
def test_main_keeps_blocks_up_to_32_mib_in_the_heap(tmp_path):
    path = tmp_path / "net.qnet"
    path.write_text(serialize(random_network(np.random.default_rng(5), units=4)))
    # 8 MiB: from the heap, kept after free; 40 MiB: mapped on its own
    assert _python(_HEAP_BLOCKS, str(path)).splitlines()[-1] == "(False, True) (True, True)"
