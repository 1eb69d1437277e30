"""The frozen-record contract of zbsim._record, which every record type of the
package relies on."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zbsim
from zbsim._record import Record, asdict, fields, replace
from zbsim.packet import GaussianPacket, Numerics, PacketDecomposition


class Point(Record):
    x: float
    y: float = 0.0
    tag: str | None = None

    def __post_init__(self) -> None:
        if self.x < 0.0:
            raise ValueError("x must be non-negative")


class Pair(Record):  # the same fields and values as Point, another class
    x: float
    y: float = 0.0
    tag: str | None = None


def test_fields_keep_declaration_order_and_defaults():
    assert fields(Point) == ("x", "y", "tag") == fields(Point(1.0))
    assert fields(Numerics) == ("kz_nodes", "kz_rule")
    # a default stays the class attribute, which the config schema reads
    assert (Point.y, Point.tag, Numerics.kz_nodes) == (0.0, None, 160)
    assert asdict(Point(1.0)) == {"x": 1.0, "y": 0.0, "tag": None}
    assert list(asdict(Point(tag="a", x=2.0))) == ["x", "y", "tag"]


def test_positional_and_keyword_construction():
    assert Point(1.0, 2.0, "a") == Point(tag="a", y=2.0, x=1.0)
    p = Point(1.0, tag="b")
    assert (p.x, p.y, p.tag) == (1.0, 0.0, "b")
    assert GaussianPacket(1.0, 2.0) == GaussianPacket(d_x=1.0, d_y=2.0, d_z=None, k0x=0.0)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing required argument"),
    ((), {"y": 1.0}, "missing required argument"),
    ((1.0, 2.0, "a", 4), {}, "takes 3 arguments, 4 were given"),
    ((1.0,), {"z": 1.0}, "unexpected argument 'z'"),
    ((1.0,), {"x": 2.0}, "multiple values for argument 'x'"),
])
def test_a_missing_or_unknown_argument_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_frozen_assignment_and_deletion():
    p = Point(1.0)
    with pytest.raises(AttributeError, match="frozen"):
        p.x = 2.0
    with pytest.raises(AttributeError, match="frozen"):
        p.other = 2.0
    with pytest.raises(AttributeError, match="frozen"):
        del p.x
    assert p.x == 1.0 and not hasattr(p, "other")


def test_equality_and_hash():
    a, b = Point(1.0, 2.0), Point(1.0, 2.0)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Point(1.0, 3.0) and a != Point(1.0, 2.0, "t")
    assert hash(a) == hash((1.0, 2.0, None))  # the field tuple
    # equal fields of another class, or a plain tuple, are not equal
    assert a != Pair(1.0, 2.0) and a != (1.0, 2.0, None)
    assert len({a, b, Point(1.0, 3.0), Pair(1.0, 2.0)}) == 3
    assert Numerics() == Numerics() and hash(Numerics()) == hash(Numerics())
    assert Numerics() != Numerics(kz_nodes=128)


def test_repr_names_every_field():
    assert repr(Point(1.0, tag="a")) == "Point(x=1.0, y=0.0, tag='a')"
    assert repr(Numerics(kz_rule="legendre")) == "Numerics(kz_nodes=160, kz_rule='legendre')"


def test_validation_on_construction_and_on_replace():
    with pytest.raises(ValueError, match="non-negative"):
        Point(-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        replace(Point(1.0), x=-1.0)
    with pytest.raises(ValueError, match="kz_nodes must be >= 2"):
        replace(Numerics(), kz_nodes=1)
    with pytest.raises(TypeError, match="unexpected argument 'y_nodes'"):
        replace(Numerics(), y_nodes=40)
    with pytest.raises(TypeError, match="unexpected argument 'kx_nodes'"):
        replace(Numerics(), kx_nodes=128)
    p = Point(1.0, 2.0, "a")
    q = replace(p, y=5.0)
    assert q == Point(1.0, 5.0, "a") and p == Point(1.0, 2.0, "a")
    assert replace(Numerics(), kz_nodes=128).kz_nodes == 128


def test_an_omitted_numerics_is_the_one_shared_default():
    *required, last = fields(PacketDecomposition)
    assert last == "numerics"
    a, b = (PacketDecomposition(**dict.fromkeys(required)) for _ in range(2))
    assert a.numerics is b.numerics and a.numerics == Numerics()


def test_no_module_uses_dataclasses_and_records_generate_no_code():
    for path in Path(zbsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Call) and path.name == "_record.py":
                assert getattr(node.func, "id", None) not in ("exec", "eval", "compile")
