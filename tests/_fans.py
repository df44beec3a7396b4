"""The named library fans the tests run over."""

from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)


def fan_library():
    """Named Cox contexts for the fans exercised throughout the tests."""
    return {
        "P1": projective_space(1),
        "P2": projective_space(2),
        "P1xP1": hirzebruch(0),
        "F0": hirzebruch(0),
        "F1": hirzebruch(1),
        "F2": hirzebruch(2),
        "F3": hirzebruch(3),
        "P1xP1xP1": product_p1_cubed(),
        "P2xP1": threefold_p2_x_p1(),
    }
