"""The named library fans the tests run over, the star subdivision
that generates fans from them, and the surfaces of the ``chow-setup``
benchmark."""

from toricsegre.fan import Fan
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


def star_subdivide(rays, cones, face):
    """Star subdivision along a face (two or more rays of one maximal
    cone): the new ray is the sum of the face's rays, and each maximal cone
    containing the face gives way to the cones that trade one face ray for
    it.  Smooth and complete in, smooth and complete out."""
    new = len(rays)
    out = []
    for cone in cones:
        if set(face) <= set(cone):
            out.extend(tuple(new if j == i else j for j in cone)
                       for i in face)
        else:
            out.append(cone)
    return rays + (tuple(map(sum, zip(*(rays[i] for i in face)))),), out


def chain_surface(r):
    """The r-ray surface of the benchmark's ``chow-setup`` workload: the
    rays (1,0), (j+1,j) for j = 1..r-8, then the seven from (1,1) round to
    (1,-1), and a maximal cone for each cyclically adjacent pair."""
    rays = ([(1, 0)] + [(j + 1, j) for j in range(1, r - 7)]
            + [(1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])
    return Fan(tuple(rays), tuple((i, (i + 1) % r) for i in range(r)))
