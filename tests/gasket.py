"""The Sierpinski gasket graph, a test graph of fractal volume growth.

Its balls grow as r^{log2 3}, so the frozen exponent 2 - d_f / alpha on it
is a law of volume growth, not of lattice dimension (Barlow, *Random Walks
and Heat Kernels on Graphs*, 2017).
"""

import numpy as np

from fksim.lattice import GraphModel


def sierpinski_gasket(level):
    """The level-``level`` gasket graph, rooted at a corner: side 2^level,
    (3^(level+1) + 3) / 2 vertices.

    Its unit triangles sit at (a, b), a + b < 2^level, where a & b == 0
    (Pascal's triangle mod 2), with corners (a, b), (a+1, b) and (a, b+1);
    each of their edges is one edge of the graph.  Vertex ids follow the
    corners' (i, j) order, so the root (0, 0) is vertex 0.
    """
    side = 1 << level
    a, b = np.divmod(np.arange(side * side), side)
    keep = ((a & b) == 0) & (a + b < side)
    a, b = a[keep], b[keep]
    corners = np.stack([a * (side + 1) + b, (a + 1) * (side + 1) + b,
                        a * (side + 1) + b + 1])
    keys, ids = np.unique(corners, return_inverse=True)
    ids = ids.reshape(3, -1)
    edges = np.concatenate([ids[[0, 1]], ids[[1, 2]], ids[[0, 2]]], axis=1)
    return GraphModel.explicit(len(keys), edges.T.tolist(), root=0)
