"""Builders for the standard test fans, with the variable names and
gradings used in the worked examples."""

from __future__ import annotations

from .fan import Fan, build_cox_context


def projective_space(n):
    """P^n: rays e_1..e_n and -(e_1+..+e_n); variables x0..xn."""
    rays = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        rays.append(tuple(v))
    rays.append(tuple([-1] * n))
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    fan = Fan(tuple(rays), tuple(cones))
    names = tuple("x%d" % i for i in range(n + 1))
    return build_cox_context(fan, names=names)


def hirzebruch(e):
    """F_e with rays (1,0), (-1,e), (0,-1), (0,1) named x0, x1, y0, y1 and
    degrees deg x0 = deg x1 = (1,0), deg y0 = (e,1), deg y1 = (0,1); the
    fiber class F is [V(x0)] and E = [V(y1)] with E^2 = -e E F."""
    fan = Fan(((1, 0), (-1, e), (0, -1), (0, 1)),
              ((0, 3), (1, 3), (1, 2), (0, 2)))
    return build_cox_context(fan, names=("x0", "x1", "y0", "y1"),
                             degrees=((1, 1, e, 0), (0, 0, 1, 1)))


def product_p1_cubed():
    """P1 x P1 x P1 with variables x0, x1, y0, y1, z0, z1 and the three
    factor classes as the grading."""
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1))
    cones = tuple((i, 2 + j, 4 + l)
                  for i in range(2) for j in range(2) for l in range(2))
    fan = Fan(rays, cones)
    return build_cox_context(
        fan, names=("x0", "x1", "y0", "y1", "z0", "z1"),
        degrees=((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                 (0, 0, 0, 0, 1, 1)))


def threefold_p2_x_p1():
    """The smooth complete 3-fold P2 x P1 with variables x0..x4, rays and
    degree matrix as in the worked 3-fold example."""
    fan = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0), (0, 0, -1)),
              ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 3, 4),
               (0, 3, 4)))
    return build_cox_context(
        fan, names=("x0", "x1", "x2", "x3", "x4"),
        degrees=((1, 1, 0, 1, 0), (0, 0, 1, 0, 1)))

