import inspect

import lort.layers
import lort.local_refine
import lort.model
from lort.layers import Conv, Layer, Norm, Param, PRelu


class Toy(Layer):
    def __init__(self):
        self.a = Param("toy.a", (2,), "zeros")
        self.size = 3  # not a layer: skipped
        self.nested = [(Norm("toy.n0", 2, "instance"), [PRelu("toy.p0", 2)]),
                       (Param("toy.c", (1,), "ones"),)]
        self.label = "toy"
        self.tail = Conv("toy.tail", 2, 2, (1, 1))
        self.a = Param("toy.a2", (4,), "gauss")  # reassigned: keeps its first slot


def test_manifest_walks_held_layers_in_assignment_order():
    assert list(Toy().manifest()) == [
        ("toy.a2", (4,), "gauss"),
        ("toy.n0.gain", (2,), "ones"),
        ("toy.n0.shift", (2,), "zeros"),
        ("toy.p0.a", (2,), "prelu"),
        ("toy.c", (1,), "ones"),
        ("toy.tail.w", (2, 2, 1, 1), "gauss"),
        ("toy.tail.b", (2,), "zeros"),
    ]


def test_only_leaves_define_a_manifest():
    layer_classes = {
        cls for module in (lort.layers, lort.model, lort.local_refine)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Layer) and cls is not Layer
    }
    own = {cls.__name__ for cls in layer_classes if "manifest" in vars(cls)}
    assert own == {"Param", "Conv", "Norm", "PRelu"}
    assert {"Lrtt", "LortModel", "Discriminator", "Dlc", "Lrc", "DenseStack"} <= {
        cls.__name__ for cls in layer_classes}


def test_manifest_of_is_gone():
    assert not hasattr(lort.layers, "manifest_of")
    assert "manifest_of" not in lort.layers.__all__
