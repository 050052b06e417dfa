"""Start-up: what a fresh `gtdkit` process imports per command, and the lazy package surface."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gtdkit
from gtdkit import fundeq, geometry

SRC = str(Path(gtdkit.__file__).resolve().parents[1])
# modules that only some commands need
LAZY = ("gtdkit.analysis", "gtdkit.phase_space", "json", "configparser", "dataclasses")

# the public names, as `gtdkit/__init__.py` listed them when it imported every module
PUBLIC_NAMES = """
    Axis BUILTIN_NAMES CLOSED_FORM_NAMES CurvatureReport CurvatureTensors DegenerateMetricError
    DirectMetricField DivergenceFit DomainError GridSpec GtdError HessianMetricField Jet
    LegendreMap MetricKind MetricValue ParseError PhaseMetricValue PhasePoint ScanReport
    SingularPoint SystemSpec builtin christoffel closed_form_metric constant
    contact_volume_coefficient contact_volume_expected curvature_tensors euler_residual evaluate
    extract_partial find_singular_locus fit_divergence_exponent fit_power_law geometric_offsets
    gibbs_duhem_residual grid_scan hessian hessian_positive_semidefinite intensive_variables
    legendre_apply legendre_invariance_residual lift_point load_metric_file load_system_file
    metric_at metric_determinant parse phase_metric_at potential_value rn_critical_points
    scalar_curvature seed_point seed_variable sphere_metric stability_residual_vdw
    theta_residual to_source
""".split()


def loaded_after(argv: list[str]) -> set[str]:
    """The modules of LAZY loaded in a fresh interpreter that ran `gtdkit argv` successfully."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from gtdkit import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(*(name for name in {LAZY!r} if name in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_eval_loads_no_module_only_other_commands_need():
    argv = ["eval", "--system", "kerr_newman", "--point", "S=5,J=0.5,Q=0.8", "--quantity", "curvature"]
    assert loaded_after(argv) == set()


def test_each_command_loads_what_it_needs(tmp_path):
    scan = ["scan", "--system", "rn_closed", "--range", "S=1:10:5", "--pin", "Q=1", "--quantity", "detg"]
    assert "gtdkit.analysis" in loaded_after(scan)
    assert "gtdkit.phase_space" in loaded_after(["check", "legendre", "--trials", "3"])
    report = ["--output", str(tmp_path / "eval.json")]
    assert "json" in loaded_after(["eval", "--system", "vdw", "--point", "S=1,V=2", *report])


def test_public_names_resolve_to_their_module_attributes():
    assert sorted(gtdkit.__all__) == sorted(PUBLIC_NAMES)
    for name in gtdkit.__all__:
        module = getattr(gtdkit, gtdkit._EXPORTS[name])
        assert getattr(gtdkit, name) is getattr(module, name)


def test_star_import_and_dir_list_exactly_all():
    namespace: dict = {}
    exec("from gtdkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gtdkit.__all__)
    assert set(gtdkit.__all__) <= set(dir(gtdkit))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gtdkit.no_such_name


def test_converted_records_keep_their_repr():
    tree = fundeq.parse("-S^2*exp(a/(V-b)) + sqrt(pi)")
    assert repr(tree) == (
        "BinOp(op='+', left=BinOp(op='*', left=Neg(operand=BinOp(op='^', left=Name(ident='S'), "
        "right=Num(value=2.0))), right=Call(func='exp', arg=BinOp(op='/', left=Name(ident='a'), "
        "right=BinOp(op='-', left=Name(ident='V'), right=Name(ident='b'))))), "
        "right=Call(func='sqrt', arg=Name(ident='pi')))"
    )
    spec = fundeq.SystemSpec("product", ("E1", "E2"), fundeq.parse("E1*E2"), weights=(1.0, 1.0), beta=2.0)
    assert repr(spec) == (
        "SystemSpec(name='product', variables=('E1', 'E2'), potential=BinOp(op='*', "
        "left=Name(ident='E1'), right=Name(ident='E2')), parameters={}, weights=(1.0, 1.0), "
        "beta=2.0, domain=None, domain_text='')"
    )


def test_converted_records_are_immutable():
    spec = fundeq.builtin("reissner_nordstrom")
    metric = geometry.metric_at(geometry.HessianMetricField(spec), [6.0, 1.0])
    for record, field in ((fundeq.parse("S + 1"), "op"), (metric, "det_g"), (spec, "name")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        del spec.parameters


def test_with_parameters_and_copy_keep_the_compiled_tape():
    spec = fundeq.builtin("vdw")
    changed = spec.with_parameters(a=2.0)
    assert changed.tape is spec.tape
    assert changed.parameters == {"a": 2.0, "b": 0.1, "k": 1.0}
    assert spec.parameters["a"] == 1.0 and changed != spec
    copied = copy.copy(spec)
    assert copied == spec and copied.tape is spec.tape


@pytest.mark.parametrize("kind", ["system", "metric"])
@pytest.mark.parametrize("evaluated", [False, True])
def test_pickle_and_deepcopy_round_trips_evaluate_alike(kind, evaluated):
    # a tape holds its step functions from the start, and pickles and copies
    # as its expressions and variables compiled again
    if kind == "system":
        source, points = fundeq.builtin("reissner_nordstrom"), [(3.0, 0.5), (5.0, 1.0)]

        def bits(source, point, order):
            return [fundeq.evaluate(source, point, order).coeffs.tobytes()]
    else:
        source, points = geometry.closed_form_metric("vdw_closed"), [(0.9, 1.0), (1.1, 2.0)]

        def bits(source, point, order):
            rows = source.component_jets(point, order)
            return [jet.coeffs.tobytes() for row in rows for jet in row]

    cases = [(point, order) for point in (points[0], points) for order in range(3)]
    if evaluated:
        for point, order in cases:
            bits(source, point, order)
    copies = (pickle.loads(pickle.dumps(source)), copy.deepcopy(source))
    expected = [bits(source, point, order) for point, order in cases]
    for copied in copies:
        assert copied.tape is not source.tape
        assert [bits(copied, point, order) for point, order in cases] == expected
