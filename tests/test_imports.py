"""What a fresh process imports: each public name loads its module on first use.

Every check runs in a fresh interpreter, since this one has long imported
every module.  Each child asserts its own expectations and prints nothing on
success.
"""
import subprocess
import sys
import textwrap

import pytest

MODULES = ("entropy", "harness", "oracle", "rankcodec", "seqio", "shaping", "sources")
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def run_fresh(code: str) -> None:
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_exact_sorted_imports_load_only_their_modules():
    unwanted = ("seqshape.harness", "seqshape.oracle", "seqshape.seqio", "seqshape.cli", *POOL_MODULES)
    run_fresh(f"""
        import sys
        from seqshape import Sequence, shaping
        loaded = sorted(set({unwanted!r}) & set(sys.modules))
        assert not loaded, f"from seqshape import Sequence, shaping loaded {{loaded}}"
        package = sorted(m for m in sys.modules if m.startswith("seqshape."))
        assert package == ["seqshape.entropy", "seqshape.rankcodec", "seqshape.shaping"], package
    """)


@pytest.mark.parametrize("strategy", ["exact-sorted", "adaptive-rank"])
def test_transform_and_invert_load_no_harness_oracle_or_sources(tmp_path, strategy):
    files = [str(tmp_path / name) for name in ("in.txt", "shaped.txt", "back.txt")]
    (tmp_path / "in.txt").write_text("ns 4\n3 1 0 2 2 1\n")
    unwanted = ("seqshape.harness", "seqshape.oracle", "seqshape.sources", *POOL_MODULES)
    run_fresh(f"""
        import sys
        from seqshape import cli
        source, shaped, back = {files!r}
        for command, infile, outfile in (("transform", source, shaped), ("invert", shaped, back)):
            code = cli.main([command, "--strategy", {strategy!r}, "--in", infile, "--out", outfile])
            assert code == 0, (command, code)
            loaded = sorted(set({unwanted!r}) & set(sys.modules))
            assert not loaded, f"sst {{command}} --strategy {strategy} loaded {{loaded}}"
    """)
    assert (tmp_path / "back.txt").read_text() == (tmp_path / "in.txt").read_text()


@pytest.mark.parametrize("module", ["seqshape.harness", "seqshape.cli"])
def test_pool_machinery_imports_with_the_first_pool(module):
    run_fresh(f"""
        import sys
        import {module}
        from seqshape import ShaperConfig, SourceSpec, run_experiment
        loaded = sorted(set({POOL_MODULES!r}) & set(sys.modules))
        assert not loaded, f"import {module} loaded {{loaded}}"
        run_experiment(SourceSpec(ns=3, n=8, pmax=0.5), ShaperConfig(ns=3), 4, 0, workers=1)
        assert not set({POOL_MODULES!r}) & set(sys.modules), "a one-worker run imported the pool machinery"
        run_experiment(SourceSpec(ns=3, n=8, pmax=0.5), ShaperConfig(ns=3), 4, 0, workers=2)
        assert "concurrent.futures.process" in sys.modules, "a two-worker run opened no process pool"
    """)


def test_every_public_name_is_its_module_object():
    # the module a name comes from is the one whose __all__ lists it
    run_fresh(f"""
        import importlib
        import seqshape
        owners = {{}}
        for module in {MODULES!r}:
            for name in importlib.import_module("seqshape." + module).__all__:
                owners.setdefault(name, []).append(module)
        assert sorted(owners) == seqshape.__all__, sorted(set(owners) ^ set(seqshape.__all__))
        for name in seqshape.__all__:
            (module,) = owners[name]
            assert getattr(seqshape, name) is getattr(importlib.import_module("seqshape." + module), name), name
            # kept in the package after the first read
            assert name in vars(seqshape), name
    """)


def test_star_import_binds_every_public_name():
    run_fresh("""
        import seqshape
        namespace = {}
        exec("from seqshape import *", namespace)
        missing = sorted(set(seqshape.__all__) - set(namespace))
        assert not missing, missing
        assert all(namespace[name] is getattr(seqshape, name) for name in seqshape.__all__)
    """)


def test_dir_lists_every_public_name_before_any_is_read():
    run_fresh("""
        import sys
        import seqshape
        listed = dir(seqshape)
        assert set(seqshape.__all__) <= set(listed), sorted(set(seqshape.__all__) - set(listed))
        assert "__version__" in listed and listed == sorted(listed)
        assert not [m for m in sys.modules if m.startswith("seqshape.")], "dir(seqshape) imported a module"
    """)


def test_unknown_name_is_an_attribute_error():
    run_fresh("""
        import seqshape
        try:
            seqshape.no_such_name
        except AttributeError as error:
            assert str(error) == "module 'seqshape' has no attribute 'no_such_name'", error
        else:
            raise AssertionError("seqshape.no_such_name resolved")
    """)
